"""The compiled cycle step against the NumPy step, and its loader.

``FastNetwork`` steps its arrays with the compiled kernel
(``repro/noc/fastsim/kernel.c``) when it loads, and with the NumPy
phase methods otherwise.  Both must leave every state array equal
after every cycle; the lockstep test below drives one engine of each
side by side on random small configurations and compares all of them,
plus every packet's timestamps and the delivery order.

The loader tests cover the fallback (a failing build warns once, quotes
the compiler, and the NumPy step gives the same results), two
processes building into one empty cache directory at once, and the
cache directory: a per-user temp directory when the package is
read-only, refused when another user owns it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc import NocConfig, Packet, SimBudget, run_fixed_point
from repro.noc.fastsim import FastNetwork, kernel
from repro.traffic import PatternTraffic, make_pattern

HAVE_COMPILER = shutil.which(kernel.COMPILER[0]) is not None

SRC = Path(kernel.__file__).resolve().parents[3]

#: Arrays the step writes as outputs or scratch, not state.
NOT_STATE = {"events", "scratch"}

TINY = NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
                 packet_length=3)
BUDGET = SimBudget(100, 300, 800)


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    kernel.load_kernel.cache_clear()
    yield
    kernel.load_kernel.cache_clear()


def numpy_engine(config: NocConfig, copies: int) -> FastNetwork:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "load_kernel", lambda: None)
        return FastNetwork(config, copies)


def tiny_run(seed: int = 4):
    traffic = PatternTraffic(make_pattern("uniform", TINY.make_mesh()),
                             0.3)
    return run_fixed_point(TINY, traffic, TINY.f_max_hz, BUDGET, seed,
                           engine="fast")


def test_kernel_loads_when_a_compiler_is_present():
    if not HAVE_COMPILER:
        pytest.skip(f"no {kernel.COMPILER[0]} on PATH")
    assert kernel.load_kernel() is not None
    assert FastNetwork(TINY).compiled


@st.composite
def scenarios(draw):
    config = NocConfig(
        width=draw(st.integers(2, 4)), height=draw(st.integers(2, 3)),
        num_vcs=draw(st.integers(1, 4)),
        vc_buf_depth=draw(st.integers(1, 4)),
        packet_length=draw(st.integers(1, 5)),
        route_latency=draw(st.integers(0, 2)),
        va_latency=draw(st.integers(0, 2)),
        link_latency=draw(st.integers(1, 2)),
        credit_latency=draw(st.integers(1, 2)))
    copies = draw(st.integers(1, 3))
    cycles = 140
    return dict(
        config=config, copies=copies, cycles=cycles,
        seed=draw(st.integers(0, 2**16)),
        rate=draw(st.floats(0.02, 0.5)),
        toggle_at=draw(st.integers(0, cycles)),
        freeze_at=draw(st.integers(0, cycles)),
        frozen=draw(st.integers(0, copies - 1)))


def assert_same_state(compiled: FastNetwork, fallback: FastNetwork,
                      cycle: int) -> None:
    for name in kernel.ARRAYS:
        if name not in NOT_STATE:
            np.testing.assert_array_equal(
                getattr(compiled, name), getattr(fallback, name),
                err_msg=f"{name} differs after cycle {cycle}")
    assert (compiled.aggregate_activity()
            == fallback.aggregate_activity()), cycle
    for copy in range(compiled.copies):
        assert (compiled.activity_of(copy)
                == fallback.activity_of(copy)), (cycle, copy)
        assert compiled.backlog_of(copy) == fallback.backlog_of(copy)
        assert (compiled.ejected_flits_of(copy)
                == fallback.ejected_flits_of(copy))
    assert compiled.stats.injected_flits == fallback.stats.injected_flits
    assert compiled.in_flight_flits() == fallback.in_flight_flits()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_compiled_step_matches_numpy_step_every_cycle(scenario):
    if not HAVE_COMPILER:
        pytest.skip(f"no {kernel.COMPILER[0]} on PATH")
    config, copies = scenario["config"], scenario["copies"]
    compiled = FastNetwork(config, copies)
    fallback = numpy_engine(config, copies)
    assert compiled.compiled and not fallback.compiled
    nets = (compiled, fallback)
    if copies > 1:
        # Per-replica clocks, so delivery times differ between copies.
        for net in nets:
            net.time_by_copy = np.zeros(copies)

    local = config.num_nodes
    rng = np.random.default_rng(scenario["seed"])
    created: list[tuple[Packet, Packet]] = []
    for cycle in range(scenario["cycles"]):
        if cycle == scenario["toggle_at"]:
            for net in nets:
                net.attribute_activity = not net.attribute_activity
        if copies > 1 and cycle == scenario["freeze_at"]:
            for net in nets:
                net.freeze_copy(scenario["frozen"])
        for node in np.flatnonzero(rng.random(local * copies)
                                   < scenario["rate"]).tolist():
            copy, src = divmod(node, local)
            dst = (src + 1 + int(rng.integers(local - 1))) % local
            length = int(rng.integers(1, config.packet_length + 1))
            pair = tuple(Packet(node, copy * local + dst, length,
                                created_cycle=cycle,
                                created_ns=float(cycle), measured=True)
                         for _ in nets)
            for net, packet in zip(nets, pair):
                net.enqueue_packet(packet)
            created.append(pair)
        for net in nets:
            net.step_cycle(cycle, float(cycle))
            if copies > 1:
                net.time_by_copy += np.arange(1.0, copies + 1.0)
        assert_same_state(compiled, fallback, cycle)

    for ours, theirs in created:
        assert ((ours.injected_cycle, ours.ejected_cycle, ours.ejected_ns,
                 ours.hops)
                == (theirs.injected_cycle, theirs.ejected_cycle,
                    theirs.ejected_ns, theirs.hops))
    index = {id(packet): n for n, pair in enumerate(created)
             for packet in pair}
    assert ([index[id(p)] for p in compiled.delivered]
            == [index[id(p)] for p in fallback.delivered])


def test_failed_build_warns_once_and_falls_back(tmp_path, fresh_loader):
    failing = (sys.executable, "-c",
               "import sys; sys.stderr.write('kernel.c:1:1: error: "
               "planted failure\\n'); sys.exit(1)")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "cache_dir", lambda: tmp_path)
        patch.setattr(kernel, "COMPILER", failing)
        with pytest.warns(RuntimeWarning) as caught:
            fallback = tiny_run()
            assert not FastNetwork(TINY).compiled
    messages = [str(w.message) for w in caught
                if "compiled cycle step" in str(w.message)]
    assert len(messages) == 1
    assert "planted failure" in messages[0]
    assert "exited with status 1" in messages[0]
    assert not list(tmp_path.iterdir())      # no half-built library

    kernel.load_kernel.cache_clear()
    if HAVE_COMPILER:
        assert kernel.load_kernel() is not None
    assert tiny_run() == fallback


CONCURRENT_BUILD = textwrap.dedent("""
    import sys, time
    from pathlib import Path
    from repro.noc.fastsim import kernel
    cache, go = Path(sys.argv[1]), Path(sys.argv[2])
    kernel.cache_dir = lambda: cache
    deadline = time.monotonic() + 60
    while not go.exists() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert kernel.load_kernel() is not None
    sys.path.insert(0, sys.argv[3])
    from test_fastsim_kernel import tiny_run
    print(repr(tiny_run().mean_delay_ns))
""")


@pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler on PATH")
def test_two_processes_build_one_cache_directory(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    go = tmp_path / "go"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    procs = [subprocess.Popen(
        [sys.executable, "-c", CONCURRENT_BUILD, str(cache), str(go),
         str(Path(__file__).parent)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(2)]
    time.sleep(0.5)             # both interpreters up before the race
    go.touch()
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert out.strip() == repr(tiny_run().mean_delay_ns)
    assert [p.name for p in cache.iterdir()] == [kernel.library_name()]


posix_users = pytest.mark.skipif(not hasattr(os, "getuid"),
                                 reason="needs POSIX user ids")


@pytest.fixture
def read_only_package(monkeypatch, tmp_path):
    """The package's ``__pycache__`` reads as unwritable, and the
    system temp directory is ``tmp_path``."""
    package_cache = kernel.SOURCE.parent / "__pycache__"
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
        Path(path) != package_cache and access(path, mode, **kwargs)))
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))


@posix_users
def test_read_only_package_caches_in_a_per_user_temp_directory(
        read_only_package, tmp_path, fresh_loader):
    fallback = tmp_path / f"repro-fastsim-{os.getuid()}"
    assert kernel.cache_dir() == fallback
    assert fallback.stat().st_mode & 0o777 == 0o700
    if HAVE_COMPILER:
        assert kernel.load_kernel() is not None
        assert ([p.name for p in fallback.iterdir()]
                == [kernel.library_name()])


@posix_users
def test_cache_directory_of_another_user_is_refused(
        read_only_package, tmp_path, fresh_loader, monkeypatch):
    # The directory is created by this process, so it belongs to the
    # real user, not to the one the loader now runs as.
    other = os.getuid() + 1
    monkeypatch.setattr(os, "getuid", lambda: other)
    with pytest.warns(RuntimeWarning, match="belongs to another user"):
        assert kernel.load_kernel() is None
    assert not list((tmp_path / f"repro-fastsim-{other}").iterdir())
    assert not FastNetwork(TINY).compiled
