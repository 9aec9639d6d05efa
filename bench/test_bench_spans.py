"""Self times and counters of the benchmark's tracer, on a clock that ticks once per reading."""
import itertools

from spans import Tracer


def _ticking_tracer() -> Tracer:
    tracer = Tracer()
    ticks = itertools.count()
    tracer.clock = lambda: float(next(ticks))
    return tracer


def test_self_time_excludes_child_spans():
    tracer = _ticking_tracer()
    inner = tracer.wrap("graphs.blocks_s", lambda: None)
    outer = tracer.wrap("treecount.kappa_s", lambda: [inner(), inner()])
    outer()  # outer 0..5, inner 1..2 and 3..4
    layers = tracer.layer_metrics()
    assert layers["treecount.kappa_s"] == 3.0
    assert layers["graphs.blocks_s"] == 2.0
    assert layers["trace.spans"] == 2 + 1


def test_counters_run_in_an_unowned_span():
    tracer = _ticking_tracer()
    det = tracer.wrap("determinant.crt_s", lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0],
                      tracer._count_crt)
    kappa = tracer.wrap("treecount.kappa_s", lambda: det([[3, 1], [1, 3]]))
    assert kappa() == 8
    layers = tracer.layer_metrics()
    assert layers["determinant.crt_s"] == 1.0
    assert layers["treecount.kappa_s"] == 3.0  # 0..5 less the call 1..2 and its counting 3..4
    assert layers["determinant.calls"] == 1
    assert layers["determinant.dim_max"] == 2
    assert layers["determinant.dim_cubed"] == 8
    # Hadamard bound 10 * 10: one word prime covers 2 * 10, and 2 * |8| too
    assert layers["determinant.crt_moduli"] == 1
    assert layers["determinant.crt_moduli_useful"] == 1.0
