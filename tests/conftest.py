import logging

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            log_to_driver=False,
        )
    yield ray
    ray.shutdown()


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
