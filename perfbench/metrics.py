"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; ``run.py --self-check`` verifies
that the two agree.  This module uses the standard library only.
"""

# End-to-end metrics of an untraced run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics of the timed phase: (name, unit, better).  A name
# ending in .calls, .s or .self_s is read from the spans of that
# function; the rest are counters read from return values, or
# qtfit.lm_useful_ratio, derived from two of them (tracing.Tracer.metrics).
TIMED_METRICS = (
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("dynamics.integrate.calls", "count", "lower"),
    ("dynamics.integrate.s", "s", "lower"),
    ("dynamics.integrate.self_s", "s", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.states_bytes", "B", "lower"),
    ("lindblad.bloch_rhs.calls", "count", "lower"),
    ("lindblad.bloch_rhs.s", "s", "lower"),
    ("lindblad.bloch_entropy.s", "s", "lower"),
    ("lindblad.qt_six_rhs.s", "s", "lower"),
    ("pme.bs_entropy.calls", "count", "lower"),
    ("pme.bs_entropy.s", "s", "lower"),
    ("pme.build_generator.s", "s", "lower"),
    ("pme.stationary_state.s", "s", "lower"),
    ("pme.spectrum.s", "s", "lower"),
    ("qtfit.fit.calls", "count", "lower"),
    ("qtfit.fit.s", "s", "lower"),
    ("qtfit.fit.self_s", "s", "lower"),
    ("qtfit.lm_starts", "count", "lower"),
    ("qtfit.lm_nfev", "count", "lower"),
    ("qtfit.lm_useful_ratio", "ratio", "higher"),
    ("qtfit.fit.residual_max", "1", "lower"),
    ("multilinear.ham_term.calls", "count", "lower"),
    ("multilinear.ham_term.s", "s", "lower"),
    ("multilinear.main_term_bruteforce.calls", "count", "lower"),
    ("multilinear.main_term_bruteforce.s", "s", "lower"),
    ("multilinear.six_slot_main_term.calls", "count", "lower"),
    ("multilinear.six_slot_main_term.s", "s", "lower"),
    ("relaxation.scan.s", "s", "lower"),
    ("relaxation.scan.samples", "count", "higher"),
    ("relaxation.classify.s", "s", "lower"),
    ("composite.qt_flow.calls", "count", "lower"),
    ("composite.qt_flow.s", "s", "lower"),
    ("jsonio.csv_text.s", "s", "lower"),
    ("jsonio.csv_text.rows", "count", "higher"),
    ("jsonio.csv_text.bytes", "B", "lower"),
    ("jsonio.dumps.s", "s", "lower"),
    ("jsonio.dumps.bytes", "B", "lower"),
    ("jsonio.atomic_write_text.s", "s", "lower"),
    ("jsonio.atomic_write_text.bytes", "B", "lower"),
)

# Warm-up phase breakdown of setup_s, reported with the setup. prefix.
SETUP_METRICS = (
    ("cli.main.s", "s", "lower"),
    ("multilinear.ham_term.calls", "count", "lower"),
    ("multilinear.ham_term.s", "s", "lower"),
    ("qtfit.fit.s", "s", "lower"),
    ("dynamics.integrate.s", "s", "lower"),
)

# Measured by the traced process itself rather than read from spans.
RUN_METRICS = (
    ("setup.import_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ops_per_s", "1/s", "lower"),
)

PER_LAYER = (
    TIMED_METRICS
    + tuple(("setup." + name, unit, better) for name, unit, better in SETUP_METRICS)
    + RUN_METRICS
)
