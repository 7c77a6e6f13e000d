"""The tracer is absent from timed calls and leaves no wrapper behind;
the speed probe leaves no timer behind."""

import signal
import sys
import time

import numpy.linalg
import pytest

import reebspec.cli  # noqa: F401  (loads every layer)
from reebbench import child, spans, workloads
from reebspec.partitions import TamuraFamily

W3 = ("1", "sqrt(2)", "1+sqrt(2)")
SMALL = {
    "tamura-scan": 2000,
    "spectrum-crosscheck": 12,
    "sh-ladder": 400,
}


def small_argv(name):
    workload = workloads.WORKLOADS[name]
    argv = workload.argv(2, W3)
    argv[argv.index(workload.size_flag) + 1] = str(SMALL[name])
    return argv


def bindings():
    """Every attribute a Tracer could replace, by identity."""
    found = {("numpy.linalg", "svd"): numpy.linalg.svd,
             ("TamuraFamily", "generator"): TamuraFamily.__dict__["generator"]}
    for name, mod in list(sys.modules.items()):
        if name == "reebspec" or name.startswith("reebspec."):
            for key, value in vars(mod).items():
                found[(name, key)] = value
    return found


def assert_unchanged(before):
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


def test_timed_call_never_installs_the_tracer(monkeypatch):
    def refuse(self):
        raise AssertionError("a timed call installed the tracer")

    monkeypatch.setattr(spans.Tracer, "installed", refuse)
    before = bindings()
    argv = small_argv("tamura-scan")
    result, text = child.measure(argv, trace=False)
    assert "layers" not in result
    assert workloads.check(workloads.WORKLOADS["tamura-scan"], argv,
                           result["exit"], text) == (0, [])
    assert_unchanged(before)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_call_restores_every_attribute(name):
    before = bindings()
    argv = small_argv(name)
    traced, text = child.measure(argv, trace=True)
    assert_unchanged(before)
    assert workloads.check(workloads.WORKLOADS[name], argv,
                           traced["exit"], text) == (0, [])
    timed, _ = child.measure(argv, trace=False)
    assert traced["sha256"] == timed["sha256"]
    layers = traced["layers"]
    assert layers["cli.output_bytes"] == traced["output_bytes"]
    assert layers["quadfield.floors"] > 0
    if name == "tamura-scan":
        assert layers["partitions.elements"] == SMALL[name]
    elif name == "sh-ladder":
        assert layers["ellipsoid.spectrum_calls"] == 2
    else:
        assert layers["czindex.crossings"] > 0
        assert layers["czindex.svd_calls"] > 0


def test_counts_repeat_exactly():
    argv = small_argv("spectrum-crosscheck")
    first, _ = child.measure(argv, trace=True)
    second, _ = child.measure(argv, trace=True)
    for name in spans.EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name


def test_restores_after_an_exception():
    before = bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            assert reebspec.cli.main is not before[("reebspec.cli", "main")]
            raise RuntimeError("raised inside the traced block")
    assert_unchanged(before)


def test_speed_probe_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    probe = child.SpeedProbe()
    with probe.installed():
        deadline = time.perf_counter() + 5 * probe.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 2
    rate = probe.LOOPS * len(probe.samples) / probe.probe_s()
    expected = 2.0 * rate / child.REF_LOOPS_PER_S
    assert probe.ref_s(2.0) == pytest.approx(expected)
