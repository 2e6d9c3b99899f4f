"""The public edges, property-tested: every value argument of the public names.

Each test starts from a call that works, replaces one argument with a value
drawn from ``ODD`` (bools, NaN, infinities, strings, complex numbers, None,
numpy scalars, 0-d, 1-d and 2-d arrays, lists and integers past the float
range), and requires the call to return, or to raise ``ValueError`` (of which
``ConfigError`` is one) or ``SingularSystemError`` with a message that names
the argument (a ``SingularSystemError`` is a step's own outcome, and names
none).  A call that raises ``ValueError`` must leave the object it acts on as
it was.  Derandomized, with a fixed budget of examples a test.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bspapa import (
    AdaptiveFilter,
    BlockPartition,
    ConfigError,
    EchoScenario,
    ExperimentConfig,
    FilterConfig,
    FilterState,
    GainVector,
    ImpulseResponse,
    RegressorHistory,
    SingularSystemError,
    StallGuards,
    ar1_filter,
    build_weighted_regressor_direct,
    build_weighted_regressor_efficient,
    experiment_from_dict,
    filter_step,
    gen_excitation,
    make_block_sparse_ir,
    misalignment_db,
    preset_config,
    scale_noise_for_snr,
    solve_regularized,
    synthesize_scenario,
    update_memory_regressor,
    variant_gains,
)

BUDGET = settings(max_examples=40, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])

ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(max_magnitude=10.0),
    st.text(max_size=3),
    st.sampled_from([
        10**400, -(10**400), np.int64(8), np.float64(0.5), np.float32(2.0), np.bool_(True),
        np.complex128(1 + 1j), np.array(3), np.array(2.5), np.array([1.0, 2.0]), np.array([]),
        np.ones((2, 2)), np.array(["a"]), np.array([1 + 2j]), np.array([True]), [1, 2], [], (1.0,),
        "5", math.nan, math.inf,
    ]),
)


def outcome(call, names):
    """Run ``call``; return None, or the ``ValueError`` it raised, whose message must name one of
    ``names``.  A ``SingularSystemError`` is a step's outcome, not a rejected argument: it is
    returned as None.  numpy's warnings of overflow or NaN are no errors here."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            call()
    except SingularSystemError:
        return None
    except ValueError as exc:
        message = str(exc)
        assert any(name in message for name in names), (names, message)
        return exc
    return None


def snapshot(*arrays):
    return [np.array(a, copy=True) for a in arrays]


def unchanged(before, *arrays):
    return all(np.array_equal(a, b, equal_nan=True) for a, b in zip(before, arrays))


CONFIG = {"variant": "bs-papa", "filter_length": 16, "projection_order": 2, "group_size": 4,
          "step_size": 0.1, "regularization": 0.01}


@BUDGET
@given(st.sampled_from(sorted(CONFIG)), ODD)
def test_filter_config_fields(field, value):
    names = {"filter_length": ("filter_length", "group_size")}.get(field, (field,))
    outcome(lambda: FilterConfig(**{**CONFIG, field: value}), names)


@BUDGET
@given(st.sampled_from(["rho", "q"]), ODD)
def test_stall_guards(field, value):
    outcome(lambda: StallGuards(**{field: value}), (field,))


@BUDGET
@given(st.sampled_from(["filter_length", "group_size"]), ODD)
def test_block_partition(field, value):
    outcome(lambda: BlockPartition(**{"filter_length": 16, "group_size": 4, field: value}),
            ("filter_length", "group_size"))


@BUDGET
@given(ODD)
def test_gain_vector(value):
    outcome(lambda: GainVector(value, BlockPartition(16, 4)), ("block_gains", "gains"))


@BUDGET
@given(st.sampled_from(["sample", "desired"]), ODD)
def test_a_rejected_process_leaves_the_filter(field, value):
    filt = AdaptiveFilter(FilterConfig("bs-papa", 16, 2, 4, step_size=0.3))
    for n in range(3):
        filt.process(0.5 - n, 0.25 * n)
    before = snapshot(filt.weights, filt.history._buf, filt._desired)
    head = filt.history._head
    args = {"sample": 0.5, "desired": 0.1, field: value}
    if outcome(lambda: filt.process(args["sample"], args["desired"]), (field,)) is not None:
        assert unchanged(before, filt.weights, filt.history._buf, filt._desired) and filt.history._head == head


@BUDGET
@given(st.sampled_from(["filter_length", "projection_order"]), ODD)
def test_regressor_history(field, value):
    outcome(lambda: RegressorHistory(**{"filter_length": 8, "projection_order": 2, field: value}), (field,))


@BUDGET
@given(st.sampled_from(["push", "extend", "input_vector"]), ODD)
def test_a_rejected_history_call_leaves_the_history(method, value):
    history = RegressorHistory(8, 2)
    history.extend([1.0, -2.0, 3.0])
    before, head = snapshot(history._buf), history._head
    names = {"push": ("sample",), "extend": ("samples",), "input_vector": ("delay",)}[method]
    if outcome(lambda: getattr(history, method)(value), names) is not None:
        assert unchanged(before, history._buf) and history._head == head


@BUDGET
@given(st.sampled_from(["matrix", "delta", "rhs"]), ODD)
def test_solve_regularized(field, value):
    args = {"matrix": np.array([[2.0, 0.5], [0.5, 1.0]]), "delta": 0.01, "rhs": np.array([1.0, -1.0]), field: value}
    names = {"delta": ("regularization",)}.get(field, (field,))
    outcome(lambda: solve_regularized(args["matrix"], args["delta"], args["rhs"]), names)


@BUDGET
@given(ODD)
def test_variant_gains(value):
    outcome(lambda: variant_gains(FilterConfig("bs-papa", 16, 2, 4), value), ("weight",))


@BUDGET
@given(st.sampled_from([build_weighted_regressor_direct, build_weighted_regressor_efficient]), ODD)
def test_builders_take_gains_over_the_history(build, value):
    history = RegressorHistory(16, 2)
    history.extend(np.arange(5.0))
    gains = variant_gains(FilterConfig("bs-papa", 16, 2, 4), np.linspace(-1.0, 1.0, 16))
    assert build(gains, history).matrix.shape == (16, 2)
    outcome(lambda: build(value, history), ("gains",))
    outcome(lambda: build(gains, value), ("history",))


@BUDGET
@given(st.sampled_from(["gains", "newest_input"]), ODD)
def test_a_rejected_memory_update_leaves_the_state(field, value):
    config = FilterConfig("bs-mpapa", 16, 2, 4)
    state = FilterState.initial(config)
    args = {"gains": variant_gains(config, np.ones(16)), "newest_input": np.ones(16), field: value}
    before, head = snapshot(state.memory_ring), state.memory_head
    if outcome(lambda: update_memory_regressor(state, args["gains"], args["newest_input"]), (field,)):
        assert unchanged(before, state.memory_ring) and state.memory_head == head


@BUDGET
@given(st.sampled_from(["desired", "memory_head", "weights"]), ODD)
def test_a_rejected_filter_step_leaves_the_state(field, value):
    config = FilterConfig("bs-mpapa", 16, 2, 4, step_size=0.3)
    state, history = FilterState.initial(config), RegressorHistory(16, 2)
    history.extend([1.0, 0.5, -0.25])
    desired = np.array([0.1, 0.2])
    if field == "desired":
        desired = value
    else:
        setattr(state, field, value)
    before = snapshot(state.memory_ring, history._buf)
    names = {"weights": ("weight",)}.get(field, (field,))
    if outcome(lambda: filter_step(config, state, history, desired), names):
        assert unchanged(before, state.memory_ring, history._buf)


@BUDGET
@given(st.sampled_from(["filter_length", "clusters", "seed"]), ODD)
def test_make_block_sparse_ir(field, value):
    args = {"filter_length": 16, "clusters": [(2, 5)], "seed": 3, field: value}
    names = {"clusters": ("cluster",)}.get(field, (field,))
    outcome(lambda: make_block_sparse_ir(args["filter_length"], args["clusters"], seed=args["seed"]), names)


@BUDGET
@given(ODD)
def test_impulse_response(value):
    outcome(lambda: ImpulseResponse(value, ((1, 2),)), ("taps",))


@BUDGET
@given(st.sampled_from(["n_samples", "seed", "kind", "pole"]), ODD)
def test_gen_excitation(field, value):
    args = {"n_samples": 10, "seed": 1, "kind": "ar1", "pole": 0.5, field: value}
    names = {"kind": ("kind",), "pole": ("pole",)}.get(field, (field,))
    outcome(lambda: gen_excitation(**args), names)


@BUDGET
@given(st.sampled_from(["driving", "pole"]), ODD)
def test_ar1_filter(field, value):
    args = {"driving": np.ones(4), "pole": 0.5, field: value}
    outcome(lambda: ar1_filter(**args), (field,))


@BUDGET
@given(st.sampled_from(["clean_echo", "snr_db", "seed"]), ODD)
def test_scale_noise_for_snr(field, value):
    args = {"clean_echo": np.linspace(-1.0, 1.0, 8), "snr_db": 20.0, "seed": 2, field: value}
    outcome(lambda: scale_noise_for_snr(**args), (field,))


@BUDGET
@given(st.sampled_from(["true_h", "est_h"]), ODD)
def test_misalignment_db(field, value):
    args = {"true_h": np.ones(4), "est_h": np.zeros(4), field: value}
    names = ("true_h", "est_h", "shape", "true system")
    outcome(lambda: misalignment_db(**args), names)


SCENARIO = {"excitation": "white", "pole": None, "snr_db": 30.0, "seed": 7, "total_samples": 40}


@BUDGET
@given(st.sampled_from(sorted(SCENARIO)), ODD)
def test_echo_scenario(field, value):
    response = make_block_sparse_ir(8, [(2, 4)], seed=1)
    args = {**SCENARIO, field: value}
    names = {"excitation": ("excitation",), "pole": ("pole",)}.get(field, (field,))
    outcome(lambda: EchoScenario(schedule=((0, response),), **args), names)


@BUDGET
@given(st.sampled_from(["seed", "total_samples", "switch_sample", "snr_db", "trace_decimation"]), ODD)
def test_preset_config(field, value):
    outcome(lambda: preset_config("fig3", **{field: value}), (field,))


@BUDGET
@given(st.sampled_from(["filter_length", "total_samples", "seed", "snr_db", "pole", "excitation"]), ODD)
def test_experiment_from_dict_scenario(field, value):
    raw = {"scenario": {"filter_length": 8, "total_samples": 40, "seed": 1,
                        "schedule": [{"switch_sample": 0, "clusters": [[2, 4]]}], field: value},
           "panel": [{"label": "a", "variant": "apa", "projection_order": 2}]}
    exc = outcome(lambda: experiment_from_dict(raw), (field,))
    assert exc is None or isinstance(exc, ConfigError)


@BUDGET
@given(st.sampled_from(["projection_order", "group_size", "step_size", "regularization", "rho", "q", "label"]), ODD)
def test_experiment_from_dict_panel(field, value):
    raw = {"scenario": {"filter_length": 8, "total_samples": 40,
                        "schedule": [{"switch_sample": 0, "clusters": [[2, 4]]}]},
           "panel": [{"label": "a", "variant": "bs-papa", "group_size": 4, "projection_order": 2, field: value}]}
    exc = outcome(lambda: experiment_from_dict(raw), (field,))
    assert exc is None or isinstance(exc, ConfigError)


@BUDGET
@given(ODD)
def test_experiment_config_decimation(value):
    scenario = preset_config("fig3", total_samples=40, switch_sample=20).scenario
    outcome(lambda: ExperimentConfig(scenario, [("a", FilterConfig("apa", 1024, 2))], trace_decimation=value),
            ("trace_decimation",))


def test_synthesis_of_a_checked_scenario_returns():
    """The fuzzed constructors above leave no scenario that synthesis then rejects unnamed."""
    x, d = synthesize_scenario(EchoScenario(schedule=((0, make_block_sparse_ir(8, [(2, 4)], seed=1)),),
                                            total_samples=40, seed=7))
    assert x.shape == d.shape == (40,) and np.all(np.isfinite(d))
