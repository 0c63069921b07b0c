"""Workload table, per-command seed derivation and the metric names.

A workload is an ordered list of ``fbmchaos`` CLI commands.  Seed 0 gives
every seeded command its acceptance seed; any other workload seed derives a
fresh seed per command, so a claim can be re-checked on held-out inputs.
"""

import random

# (label, argv, acceptance seed or None, verdict comes from sampling)
WORKLOADS = {
    "mc-fine-grid": [
        ("simulate", ["simulate", "--m", "13"], 0, False),
        ("lift", ["lift", "--m", "10", "--refine", "8", "--level3"], 0, False),
        ("verify-fclt", ["verify-fclt", "--m", "10", "--n-sub", "8",
                         "--replicas", "2000"], 303, True),
    ],
    "mc-many-paths": [
        ("verify-moment.levy-area", ["verify-moment", "--which", "levy-area",
                                     "--replicas", "10000"], 101, True),
        ("verify-moment.growth", ["verify-moment", "--which", "growth"],
         202, True),
        ("rde-demo", ["rde-demo"], 12, True),
    ],
    "oracles": [
        ("constants", ["constants"], None, False),
        ("constants.identity", ["constants", "--identity"], None, False),
        ("verify-third-order.scaling", ["verify-third-order", "--which",
                                        "scaling"], None, False),
        ("verify-moment.covariance", ["verify-moment", "--which",
                                      "covariance"], 404, False),
        ("verify-third-order.rho-sum", ["verify-third-order", "--which",
                                        "rho-sum"], None, False),
    ],
    "variation": [
        ("young-check", ["young-check", "--cases", "100"], 2024, False),
        ("pvar", ["pvar", "--points", "4"], 0, False),
    ],
}

COMMAND_LABELS = [label for cmds in WORKLOADS.values()
                  for label, _, _, _ in cmds]


def commands(workload, seed):
    """The workload's commands as dicts {label, argv, statistical}."""
    out = []
    for label, argv, default_seed, statistical in WORKLOADS[workload]:
        argv = list(argv)
        if default_seed is not None:
            cmd_seed = default_seed if seed == 0 else random.Random(
                f"{workload}/{label}/{seed}").randrange(1, 2 ** 31)
            argv += ["--seed", str(cmd_seed)]
        out.append({"label": label, "argv": argv, "statistical": statistical})
    return out


# fail_rate (failed / attempted commands) is reported through the result
# line's "failed" and "attempted" fields: it is 0 on a healthy tree, so it
# cannot be a metric bounded by a share of its median.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

RUNNERS = [
    "constants_experiment", "constant_identity_experiment",
    "levy_area_mc_experiment", "moment_experiment", "fclt_experiment",
    "covariance_table_experiment", "third_order_experiment",
    "rho_sum_experiment", "young_suite_experiment", "rde_demo_experiment",
]

# Per-layer metric -> unit.  "<fn>.calls" and "<fn>.total_s" read the
# tracer's per-function tables, "<layer>.self_s" its per-layer self time,
# everything else its named counters.
PER_LAYER = {name: "s" if name.endswith("_s") else "count" for name in [
    "fbm.self_s", "fbm.simulate.calls", "fbm.simulate.total_s",
    "fbm.simulate_batch.calls", "fbm.simulate_batch.total_s",
    "fbm.cold_s", "fbm.warm_s", "fbm.streams", "fbm.points",
    "fbm.dump_csv.total_s",
    "lift.self_s", "lift.levy_areas.calls", "lift.levy_areas.total_s",
    "lift.level3_areas.calls", "lift.level3_areas.total_s",
    "lift.chen_combine.calls", "lift.signature.total_s",
    "gaussian.self_s", "gaussian.series_constants.calls",
    "gaussian.series_constants.distinct", "gaussian.series_constants.total_s",
    "gaussian.tilde_rho.calls", "gaussian.tilde_rho.total_s",
    "gaussian.cov.calls", "gaussian.cov_rect.calls",
    "gaussian.iterated_cov_Rl.total_s",
    "chaos.self_s", "chaos.cov_K_lags.calls", "chaos.cov_K_lags.lags",
    "chaos.cov_K_lags.distinct_lags", "chaos.cov_K_lags.total_s",
    "chaos.second_moment_K.calls", "chaos.exact_second_moment_Q.calls",
    "chaos.exact_second_moment_Q.total_s", "chaos.isserlis_moment.calls",
    "chaos.rho_sum_bound_verify.calls", "chaos.rho_sum_bound_verify.total_s",
    "rde.self_s", "rde.taylor_steps.calls", "rde.taylor_steps.total_s",
    "rde.taylor_steps.cell_steps", "rde.solve.calls",
    "young.self_s", "young.rect_increment.calls", "young.Vp.calls",
    "young.Vp.total_s", "young.controlled_pvar.calls",
    "young.controlled_pvar.total_s", "young.bar_Vp.calls",
    "young.towghi_check.calls",
    "experiments.self_s",
    *(f"experiments.{r}.total_s" for r in RUNNERS),
    "cli.self_s",
    *(f"cli.{label}.wall_s" for label in COMMAND_LABELS),
]}
