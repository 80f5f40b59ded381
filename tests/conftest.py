import logging

import pytest


def _start_ray():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        log_to_driver=False,
    )


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        _start_ray()
    yield ray
    ray.shutdown()


@pytest.fixture
def restart_ray(ray_session):
    """``restart_ray()`` ends this process's Ray session and starts a new
    local one with the session fixture's settings; later tests run in it."""

    def restart():
        ray_session.shutdown()
        _start_ray()

    return restart


@pytest.fixture
def buckets(monkeypatch):
    """``buckets(n)`` sets ``ops/shuffle.NUM_BUCKETS`` to ``n`` for this
    test, so a few buckets each hold several keys. ``bucketed`` reads it
    on the driver once per call, so the Ray workers route by it too."""
    from jsonld_ex_ray.ops import shuffle

    return lambda n: monkeypatch.setattr(shuffle, "NUM_BUCKETS", n)


@pytest.fixture
def gate_paths(caplog):
    """The paths the broadcast-or-bucketed gate (ops/joins.py) logged in
    this test, in call order: ``gate_paths()`` for every op,
    ``gate_paths("exact_dedup")`` for one."""
    caplog.set_level(logging.INFO, logger="jsonld_ex_ray.gate")

    def paths(op=None):
        return [
            r.gate["path"]
            for r in caplog.records
            if hasattr(r, "gate") and op in (None, r.gate["op"])
        ]

    return paths


def pytest_terminal_summary(terminalreporter):
    """Say it loudly when the W3C conformance tests skipped: the JSON-LD
    core then ran without its spec suite."""
    skipped = terminalreporter.stats.get("skipped", [])
    if any("test_w3c.py::" in r.nodeid for r in skipped):
        terminalreporter.write_line(
            "W3C JSON-LD suite not vendored: the JSON-LD core is unguarded "
            "by W3C tests on this run (tests/test_w3c.py skipped)",
            yellow=True,
            bold=True,
        )
