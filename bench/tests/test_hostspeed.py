"""The host-speed probe must not depend on the measured program's heap."""

import gc

import hostspeed


def test_probe_runs_no_collection_and_restores_the_collector():
    collections = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    threshold = gc.get_threshold()
    # A low threshold stands for a probe that starts just before the
    # program's own allocations would trigger a collection.
    gc.set_threshold(10)
    gc.callbacks.append(on_gc)
    try:
        assert gc.isenabled()
        for _ in range(20):
            hostspeed.probe()
        assert collections == []
        assert gc.isenabled()

        gc.disable()
        try:
            hostspeed.probe()
            assert not gc.isenabled()
        finally:
            gc.enable()
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*threshold)
