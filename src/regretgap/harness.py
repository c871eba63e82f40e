"""Verification suites, parameter sweeps, and CSV/JSON reporting.

Each verify suite checks one pinned property of the library against either
a closed-form value or an inequality bound, and emits one ReportRow per
check.  Tolerances are pinned, not settable: 1e-9 on closed-form equalities
and as the slack of the construction, lemma1 and jirl-ub bounds, and 1e-6
slack on the trained policies' upper bounds.  Four suites pin their own:
single-agent-eq 1e-8, nfg 1e-12, br-oracle 1e-10, and oco-regret's bound
has no slack.  Suites are deterministic: every random object derives its
seed from a fixed SeedSequence, and within-suite evaluation order is fixed.
"""

from __future__ import annotations

import csv
import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .evaluate import (
    advantage_tensor,
    best_response_deviation,
    coverage_constant,
    enumerate_stationary_best_response,
    is_approx_ce,
    moment_matching_error,
    occupancy_bundle,
    recoverability_constant,
    regret,
    regret_gap,
    value,
    value_gap,
)
from .fixtures import (
    FIXTURES,
    _check_params,
    alice_lb_game,
    build_fixture,
    coverage_lb_game,
    fig1_game,
    multi_ce_nfg,
    random_deviation_class,
    random_mg,
)
from .games import (
    CoverageError,
    DeviationClass,
    induced_tables,
    sample_demonstrations,
    with_common_reward,
)
from .learners import ExpertOracle, TrainConfig, blades_train, j_bc, j_irl, malice_train
from .losses import CompositeMaxLoss, blades_loss, malice_loss, oco_run, weighted_tv_loss

SCHEMA_VERSION = "3"
EQ_TOL = 1e-9        # closed-form equalities
BOUND_SLACK = 1e-6   # slack added to inequality bounds

CSV_COLUMNS = [
    "schema_version", "suite", "fixture", "algo", "H", "m", "beta", "u", "eps",
    "N", "seed", "value_gap", "regret_gap", "bound", "expected", "measured",
    "pass", "runtime_ms", "error", "exact",
]


@dataclass
class ReportRow:
    suite: str
    fixture: str
    algo: str = ""
    H: int | None = None
    m: int | None = None
    beta: float | None = None
    u: float | None = None
    eps: float | None = None
    N: int | None = None
    seed: int | None = None
    value_gap: float | None = None
    regret_gap: float | None = None
    bound: float | None = None
    expected: float | None = None
    measured: float | None = None
    passed: bool | None = False    # None: no closed form to check against
    runtime_ms: float = 0.0
    error: str = ""
    exact: bool | None = None      # RegretReport.exact; None: no regret report
    schema_version: str = SCHEMA_VERSION

    def to_csv_dict(self) -> dict:
        out = {}
        for col in CSV_COLUMNS:
            attr = "passed" if col == "pass" else col
            val = getattr(self, attr)
            out[col] = "" if val is None else val
        return out


def write_rows(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.to_csv_dict())


def _timed(suite):
    """Turn a suite body that yields its rows into one that returns them, each
    charged the wall time since the previous row (or the call) on top of the
    ``runtime_ms`` the body set, its game's memoized training time.  Work the
    body does before it returns its generator is not charged."""
    @functools.wraps(suite)
    def run(*args, **kwargs) -> list[ReportRow]:
        rows = suite(*args, **kwargs)
        out, started = [], time.perf_counter()
        for row in rows:
            now = time.perf_counter()
            row.runtime_ms += (now - started) * 1000.0
            out.append(row)
            started = now
        return out
    return run


# ---------------------------------------------------------------------------
# Shared random suites
# ---------------------------------------------------------------------------

_PROPERTY_ROUNDS = 500


def property_suite_games(count: int = 50):
    """Seeded full-coverage 2-agent games with explicit deviation classes.

    Sizes stay within |S| <= 6, |A_i| <= 3, H <= 6, and each class holds at
    most 8 deviations including the per-agent identities.
    """
    out = []
    for k in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=1234, spawn_key=(k,)))
        n_states = int(rng.integers(3, 7))
        horizon = int(rng.integers(3, 7))
        counts = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        fx = random_mg(rng, n_states=n_states, horizon=horizon, action_counts=counts,
                       full_coverage_expert=True)
        phi = random_deviation_class(fx.game, per_agent=4, seed=rng)
        out.append((k, fx, phi))
    return out


@functools.cache
def property_suite_results():
    """Train j_bc / malice / blades on the shared suite once; memoized.

    Per game returns the measured coverage, recoverability, expert regret,
    per-learner imitation error, trained-policy regret and regret gap, and
    in ``train_ms`` the wall time that took, which every row built from the
    game adds to its runtime.
    """
    records = []
    for k, fx, phi in property_suite_games():
        t0 = time.perf_counter()
        game, expert = fx.game, fx.expert
        beta = coverage_constant(game, expert)
        u = recoverability_constant(game, expert, phi)
        r_expert = regret(game, expert, phi)
        d_expert = occupancy_bundle(game, expert).avg_state
        rec = {
            "index": k, "game": game, "expert": expert, "phi": phi,
            "H": game.horizon, "m": game.num_agents, "beta": beta, "u": u,
            "regret_expert": r_expert,
        }
        cfg = TrainConfig(rounds=_PROPERTY_ROUNDS)
        sig_bc = j_bc(game, expert=expert, fill_rule="uniform")
        res_m = malice_train(game, expert, phi, cfg)
        demos = sample_demonstrations(game, expert, 200, seed=10_000 + k)
        res_b = blades_train(game, ExpertOracle(expert), demos, phi, cfg)
        for algo, policy, eps in (("bc", sig_bc, weighted_tv_loss(expert, sig_bc, d_expert)),
                                  ("malice", res_m.policy, res_m.final_loss),
                                  ("blades", res_b.policy, res_b.final_loss)):
            rec.update({f"{algo}_eps": eps, f"{algo}_policy": policy,
                        f"{algo}_regret": regret(game, policy, phi)})
            rec[f"{algo}_gap"] = rec[f"{algo}_regret"] - r_expert
        rec["blades_queries"] = res_b.query_count
        rec["train_ms"] = (time.perf_counter() - t0) * 1000.0
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@_timed
def suite_thm3() -> list[ReportRow]:
    """Occupancy-equal pairs whose regret gap still grows linearly in H."""
    for H in (4, 8, 16, 32):
        fx = fig1_game(H)
        dc = DeviationClass.complete(2)
        occ_l1 = moment_matching_error(fx.game, fx.expert, fx.learner, normalized=True)
        gap = regret_gap(fx.game, fx.expert, fx.learner, dc)
        ok = occ_l1 <= 1e-12 and abs(gap - (H - 2)) <= EQ_TOL
        yield ReportRow(
            suite="thm3", fixture=f"fig1(H={H})", H=H, m=2,
            expected=float(H - 2), measured=gap, value_gap=occ_l1,
            regret_gap=gap, passed=ok)


@_timed
def suite_coverage_lb(suite_name: str = "thm6-lb") -> list[ReportRow]:
    """Full-coverage construction: imitation error eps, moment error <= 2 eps,
    regret gap exactly eps*H/(2 beta) * (u'-2).  The one construction runs
    as both thm5-lb and thm6-lb, which emit identical rows under their names."""
    fx = coverage_lb_game()
    H, u, beta, eps = (fx.params[k] for k in ("H", "u", "beta", "eps"))
    dc = DeviationClass.complete(2)
    d_e = occupancy_bundle(fx.game, fx.expert).avg_state
    bc_err = weighted_tv_loss(fx.expert, fx.learner, d_e)
    yield ReportRow(
        suite=suite_name, fixture="coverage-lb/bc-error", H=H, m=2, beta=beta, eps=eps,
        expected=eps, measured=bc_err, passed=abs(bc_err - eps) <= EQ_TOL)
    mom = moment_matching_error(fx.game, fx.expert, fx.learner, normalized=True)
    yield ReportRow(
        suite=suite_name, fixture="coverage-lb/moment", H=H, m=2, beta=beta, eps=eps,
        bound=2 * eps + EQ_TOL, measured=mom, passed=mom <= 2 * eps + EQ_TOL)
    gap = regret_gap(fx.game, fx.expert, fx.learner, dc)
    expected = fx.expected["regret_gap"]
    yield ReportRow(
        suite=suite_name, fixture="coverage-lb/regret-gap", H=H, m=2, beta=beta, eps=eps,
        u=u, expected=expected, measured=gap, regret_gap=gap,
        passed=abs(gap - expected) <= EQ_TOL)


@_timed
def suite_alice_lb(which: str = "malice") -> list[ReportRow]:
    """Single-agent fork: deviation-aware losses stay at eps while the regret
    gap is eps*H*(u'-1).  The one construction runs as thm8-lb and thm10-lb,
    whose rows differ only in the loss: MALICE for the first, BLADES for the second."""
    fx = alice_lb_game()
    H, u, beta, eps = (fx.params[k] for k in ("H", "u", "beta", "eps"))
    phi = fx.witness_class()
    suite_name = "thm8-lb" if which == "malice" else "thm10-lb"
    d_e = occupancy_bundle(fx.game, fx.expert).avg_state
    dists = [occupancy_bundle(fx.game, induced_tables(fx.game, fx.learner, dev)).avg_state
             for i in range(phi.num_agents) for dev in phi.explicit_for(i)]
    if which == "malice":
        loss = malice_loss(fx.expert, fx.learner, d_e, dists)
    else:
        loss = blades_loss(ExpertOracle(fx.expert), fx.learner, dists)
    yield ReportRow(
        suite=suite_name, fixture=f"alice-lb/{which}-loss", H=H, m=1, beta=beta, eps=eps,
        bound=eps + EQ_TOL, measured=loss, passed=loss <= eps + EQ_TOL)
    gap = regret_gap(fx.game, fx.expert, fx.learner, DeviationClass.complete(1))
    expected = fx.expected["regret_gap"]
    yield ReportRow(
        suite=suite_name, fixture="alice-lb/regret-gap", H=H, m=1, beta=beta, eps=eps, u=u,
        expected=expected, measured=gap, regret_gap=gap,
        passed=abs(gap - expected) <= EQ_TOL)


@_timed
def suite_single_agent_eq() -> list[ReportRow]:
    """On one-agent games the regret gap equals the value gap exactly."""
    count, tol = 100, 1e-8
    worst = 0.0
    for k in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(k,)))
        fx = random_mg(rng, n_states=int(rng.integers(2, 9)), horizon=int(rng.integers(2, 7)),
                       action_counts=(int(rng.integers(2, 5)),))
        dc = DeviationClass.complete(1)
        rg_ = regret_gap(fx.game, fx.expert, fx.learner, dc)
        vg = value_gap(fx.game, fx.expert, fx.learner)
        worst = max(worst, abs(rg_ - vg))
    yield ReportRow(
        suite="single-agent-eq", fixture=f"random-mdp x{count}", m=1, N=count,
        bound=tol, measured=worst, passed=worst <= tol)


@_timed
def suite_nfg() -> list[ReportRow]:
    """Distinct zero-regret policies with different values in the one-shot game."""
    tol = 1e-12
    fx_r, fx_rp = multi_ce_nfg()
    dc = DeviationClass.complete(2)
    r1 = regret(fx_r.game, fx_r.expert, dc)
    r2 = regret(fx_r.game, fx_r.learner, dc)
    yield ReportRow(
        suite="nfg", fixture="multi-ce-nfg/regrets", m=2, H=1,
        expected=0.0, measured=max(abs(r1), abs(r2)),
        passed=abs(r1) <= tol and abs(r2) <= tol)
    vdiff = value(fx_r.game, fx_r.expert, 0) - value(fx_r.game, fx_r.learner, 0)
    yield ReportRow(
        suite="nfg", fixture="multi-ce-nfg/value-diff", m=2, H=1,
        expected=1.0 / 3.0, measured=vdiff, passed=abs(vdiff - 1.0 / 3.0) <= tol)
    gap = regret_gap(fx_r.game, fx_r.expert, fx_r.learner, dc)
    vgap = value_gap(fx_r.game, fx_r.expert, fx_r.learner)
    yield ReportRow(
        suite="nfg", fixture="multi-ce-nfg/regret-gap-zero-value-gap-not", m=2, H=1,
        expected=0.0, measured=gap, value_gap=vgap, regret_gap=gap,
        passed=abs(gap) <= tol and vgap > 0.1)
    rp = regret(fx_rp.game, fx_rp.expert, dc)
    yield ReportRow(
        suite="nfg", fixture="multi-ce-nfg/rprime-regret", m=2, H=1,
        expected=0.0, measured=rp, passed=abs(rp) <= tol)


@_timed
def _suite_ub(algo: str) -> list[ReportRow]:
    """Policies of the shared suite obey their regret-gap bounds: exact-fit
    cloning with uniform fill (eps/beta + 2 eps) * u * H on covered games,
    trained MALICE and BLADES 2 * eps_hat * u * H, and BLADES must actually
    have queried the expert."""
    key = "bc" if algo == "jbc" else algo
    records = property_suite_results()      # fetched before the timer starts; rows add train_ms

    def rows():
        for rec in records:
            eps, beta, u, H, gap = (rec[k] for k in (f"{key}_eps", "beta", "u", "H", f"{key}_gap"))
            coverage_term = (eps / beta) * u * H if algo == "jbc" else 0.0
            bound = coverage_term + 2 * eps * u * H + BOUND_SLACK
            yield ReportRow(
                suite=f"{algo}-ub", fixture=f"random-{rec['index']}", algo=algo, H=H, m=rec["m"],
                beta=beta, u=u, eps=eps, N=None if algo == "jbc" else _PROPERTY_ROUNDS,
                seed=rec["index"], regret_gap=gap, bound=bound, measured=gap,
                passed=gap <= bound and (algo != "blades" or rec["blades_queries"] > 0),
                runtime_ms=rec["train_ms"])
    return rows()


suite_jbc_ub = functools.partial(_suite_ub, "jbc")
suite_malice_ub = functools.partial(_suite_ub, "malice")
suite_blades_ub = functools.partial(_suite_ub, "blades")


@_timed
def suite_thm4_ce() -> list[ReportRow]:
    """Trained policies sit within expert-regret + regret-gap of equilibrium."""
    records = property_suite_results()      # fetched before the timer starts; rows add train_ms

    def rows():
        for rec in records:
            game, phi = rec["game"], rec["phi"]
            ok = True
            for algo in ("bc", "malice", "blades"):
                eps_ce = rec["regret_expert"] + rec[f"{algo}_gap"] + EQ_TOL
                ok = ok and is_approx_ce(game, rec[f"{algo}_policy"], phi, max(eps_ce, 0.0))
            yield ReportRow(
                suite="thm4-ce", fixture=f"random-{rec['index']}", H=rec["H"], m=rec["m"],
                measured=rec["malice_regret"], passed=ok, runtime_ms=rec["train_ms"])
    return rows()


@_timed
def suite_jirl_ub() -> list[ReportRow]:
    """Moment matching: value gap is dominated by the unnormalized moment
    error, and the error itself converges below 0.05."""
    for k in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=555, spawn_key=(k,)))
        fx = random_mg(rng, n_states=4, horizon=4, action_counts=(2, 2),
                       common_payoff=True, full_coverage_expert=True)
        res = j_irl(fx.game, fx.expert, rounds=500)
        err_norm = moment_matching_error(fx.game, fx.expert, res.policy, normalized=True)
        err_raw = moment_matching_error(fx.game, fx.expert, res.policy, normalized=False)
        vg = value_gap(fx.game, fx.expert, res.policy)
        ok = vg <= err_raw + EQ_TOL and err_norm <= 0.05
        yield ReportRow(
            suite="jirl-ub", fixture=f"random-cp-{k}", algo="jirl", H=4, m=2,
            N=res.rounds_run, seed=k, value_gap=vg, bound=err_raw + EQ_TOL,
            measured=err_norm, passed=ok)


@_timed
def suite_lemma1() -> list[ReportRow]:
    """|J_i(pi1) - J_i(pi2)| <= u * H * E_{d_pi2}[TV(pi1, pi2)] on random triples."""
    count = 200
    worst = -np.inf
    ok = True
    for k in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=99, spawn_key=(k,)))
        fx = random_mg(rng, n_states=int(rng.integers(2, 6)), horizon=int(rng.integers(2, 6)),
                       action_counts=(int(rng.integers(2, 4)), int(rng.integers(2, 4))))
        game, pi1, pi2 = fx.game, fx.expert, fx.learner
        d2 = occupancy_bundle(game, pi2).avg_state
        eps = weighted_tv_loss(pi1, pi2, d2)
        for i in range(game.num_agents):
            _, _, adv = advantage_tensor(game, pi1, i)
            u = float(np.abs(adv).max())
            dj = abs(value(game, pi1, i) - value(game, pi2, i))
            slack = dj - (eps * u * game.horizon + EQ_TOL)
            worst = max(worst, slack)
            ok = ok and slack <= 0
    yield ReportRow(
        suite="lemma1", fixture=f"random x{count}", N=count, bound=0.0,
        measured=worst, passed=ok)


@_timed
def suite_oco_regret() -> list[ReportRow]:
    """Exponentiated gradient keeps average regret within 2 sqrt(log A / N)
    of the best fixed policy on an adversarial alternating loss sequence."""
    A, rounds = 4, 4096
    targets = [np.zeros((1, A)), np.zeros((1, A))]
    targets[0][0, 0] = 1.0
    targets[1][0, 1] = 1.0
    weights = np.ones(1)

    def builder(n, sigma):
        t = targets[(n - 1) % 2]
        return CompositeMaxLoss(weights[None], t)

    run = oco_run(builder, (1, A), TrainConfig(rounds=rounds))
    avg_alg = float(run.losses.mean())
    # best fixed comparator by dense grid over the simplex; for the
    # alternating one-hot targets the optimum 1/2 lies on the grid exactly
    grid_best = _best_fixed_on_grid(targets, rounds, A)
    avg_regret = avg_alg - grid_best
    bound = 2.0 * float(np.sqrt(np.log(A) / rounds))
    ok = avg_regret <= bound
    yield ReportRow(
        suite="oco-regret", fixture=f"alternating x{rounds}", algo="eg", N=rounds,
        bound=bound, measured=avg_regret, passed=ok)


def _best_fixed_on_grid(targets, rounds, n_actions) -> float:
    steps = 20
    seq_weights = np.zeros(len(targets))
    for n in range(rounds):
        seq_weights[n % len(targets)] += 1.0
    seq_weights /= rounds
    best = np.inf
    for comb in itertools.combinations_with_replacement(range(steps + 1), n_actions - 1):
        parts = np.diff([0, *comb, steps])
        sigma = parts / steps
        loss = sum(w * 0.5 * np.abs(t[0] - sigma).sum() for w, t in zip(seq_weights, targets))
        best = min(best, float(loss))
    return best


@_timed
def suite_thm1_dir() -> list[ReportRow]:
    """Reward sweeps on the occupancy-equal pair: every per-reward value gap
    is zero, negative single-cell rewards identify the occupancy measure
    through the regret, yet some per-reward regret gap is positive."""
    H = 6
    fx = fig1_game(H)
    game = fx.game
    dc = DeviationClass.complete(2)
    S, A = game.n_states, game.n_joint_actions
    rho_e = occupancy_bundle(game, fx.expert).avg_joint
    rho_l = occupancy_bundle(game, fx.learner).avg_joint
    max_vgap = 0.0
    max_rgap = -np.inf
    ident_ok = True
    pair_ok = True
    for s in range(S):
        for a in range(A):
            for sign in (+1.0, -1.0):
                f = np.zeros((S, A))
                f[s, a] = sign
                g2 = with_common_reward(game, f)
                max_vgap = max(max_vgap, abs(value_gap(g2, fx.expert, fx.learner)))
                gap = regret_gap(g2, fx.expert, fx.learner, dc)
                max_rgap = max(max_rgap, gap)
                if sign < 0:
                    # the best response escapes the penalized cell, so the
                    # regret reads off H * occupancy at (s, a) exactly
                    r_l = regret(g2, fx.learner, dc)
                    ident_ok = ident_ok and abs(r_l - H * rho_l[s, a]) <= EQ_TOL
                    # equal pair: zero regret gap under every indicator forces equal occupancies
                    pair_ok = pair_ok and abs(regret_gap(g2, fx.expert, fx.expert, dc)) <= EQ_TOL
    true_gap = regret_gap(game, fx.expert, fx.learner, dc)
    ok = (max_vgap <= 1e-12 and max_rgap > EQ_TOL and ident_ok
          and abs(true_gap - (H - 2)) <= EQ_TOL)
    yield ReportRow(
        suite="thm1-dir", fixture=f"fig1(H={H})/sweep", H=H, m=2,
        value_gap=max_vgap, regret_gap=true_gap, measured=max_rgap,
        expected=float(H - 2), passed=ok)
    occ_l1 = float(np.abs(rho_e - rho_l).sum())
    yield ReportRow(
        suite="thm1-dir", fixture=f"fig1(H={H})/equal-pair", H=H, m=2,
        measured=occ_l1, bound=1e-12, passed=pair_ok and occ_l1 <= 1e-12)


@_timed
def suite_br_oracle() -> list[ReportRow]:
    """Per-step best-response DP equals stationary brute force on games where
    every state belongs to exactly one step."""
    count, tol = 200, 1e-10
    worst = 0.0
    ok = True
    for k in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=31337, spawn_key=(k,)))
        sizes = tuple(int(rng.integers(1, 4)) for _ in range(2))
        fx = random_mg(rng, n_states=sum(sizes), horizon=2, action_counts=(2, 2),
                       layered=True, layer_sizes=sizes)
        sigma = fx.expert
        for i in range(2):
            dp = best_response_deviation(fx.game, sigma, i)
            bf = enumerate_stationary_best_response(fx.game, sigma, i)
            diff = abs(dp.gain - bf.gain)
            worst = max(worst, diff)
            ok = ok and diff <= tol
    yield ReportRow(
        suite="br-oracle", fixture=f"layered x{count}", N=count, bound=tol,
        measured=worst, passed=ok)


SUITES = {
    "thm3": suite_thm3,
    "thm5-lb": functools.partial(suite_coverage_lb, suite_name="thm5-lb"),
    "thm6-lb": suite_coverage_lb,
    "thm8-lb": suite_alice_lb,
    "thm10-lb": functools.partial(suite_alice_lb, which="blades"),
    "single-agent-eq": suite_single_agent_eq,
    "nfg": suite_nfg,
    "malice-ub": suite_malice_ub,
    "blades-ub": suite_blades_ub,
    "jbc-ub": suite_jbc_ub,
    "jirl-ub": suite_jirl_ub,
    "lemma1": suite_lemma1,
    "oco-regret": suite_oco_regret,
    "thm1-dir": suite_thm1_dir,
    "thm4-ce": suite_thm4_ce,
    "br-oracle": suite_br_oracle,
}


def run_suite(name: str) -> list[ReportRow]:
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [row for suite in (SUITES if name == "all" else [name]) for row in SUITES[suite]()]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _sweep_cell(fixture: str, params: dict, algo: str, seed: int, rounds: int) -> ReportRow:
    """One grid cell.  Without ``algo`` the fixture's learner is checked
    against its closed-form regret gap; with one, the trained policy's gaps
    are measured and ``expected``/``pass`` stay empty, since no closed form
    pins a trained policy's gap."""
    fx = build_fixture(fixture, horizon=params.get("H"), u=params.get("u"),
                       beta=params.get("beta"), eps=params.get("eps"))
    game = fx.game
    if not algo:
        pol = fx.learner
    elif algo == "jbc":
        pol = j_bc(game, expert=fx.expert, fill_rule="uniform")
    elif algo == "jirl":
        pol = j_irl(game, fx.expert, rounds=rounds).policy
    elif algo == "malice":
        pol = malice_train(game, fx.expert, fx.witness_class(),
                           TrainConfig(rounds=rounds)).policy
    else:                                   # blades; run_sweep checked the name
        demos = sample_demonstrations(game, fx.expert, 100, seed=seed)
        pol = blades_train(game, ExpertOracle(fx.expert), demos, fx.witness_class(),
                           TrainConfig(rounds=rounds)).policy
    gap = regret_gap(game, fx.expert, pol, DeviationClass.complete(game.num_agents))
    expected = None if algo else fx.expected.get("regret_gap")
    return ReportRow(
        suite="sweep", fixture=fixture, algo=algo,
        H=game.horizon, m=game.num_agents,
        beta=params.get("beta"), u=params.get("u"), eps=params.get("eps"),
        N=None if algo in ("", "jbc") else rounds, seed=seed,
        value_gap=value_gap(game, fx.expert, pol), regret_gap=gap, measured=gap,
        expected=expected,
        passed=None if algo else expected is None or abs(gap - expected) <= EQ_TOL,
    )


SWEEP_KEYS = ("fixture", "grid", "algo", "rounds", "base_seed", "out")


def run_sweep(config: dict) -> tuple[list[ReportRow], dict]:
    """Grid sweep over fixture parameters; cells run one after another in
    grid order, cell k seeded from ``base_seed`` and k.  Every field of the
    config, ``out`` (the CSV path the CLI writes) included, is checked
    before any cell runs, and an error names its field; a key outside
    ``SWEEP_KEYS`` is one.  A cell that raises becomes a failed row
    carrying the exception in ``error``; cells whose learner
    assumption failed (``CoverageError``) are also counted in
    ``assumption_violations``, so the CLI can exit as ``train`` does."""
    unknown = sorted(set(config) - set(SWEEP_KEYS))
    if unknown:
        raise ValueError(f"unknown sweep config key {unknown[0]!r}; the keys are {list(SWEEP_KEYS)}")
    fixture = config.get("fixture", "fig1")
    if not isinstance(fixture, str) or fixture not in FIXTURES:
        raise KeyError(f"unknown sweep fixture {fixture!r}")
    grid = config.get("grid")
    if not (isinstance(grid, dict) and grid
            and all(isinstance(v, list) and v for v in grid.values())):
        raise ValueError(f"sweep grid must be a nonempty object of nonempty lists, got {grid!r}")
    if "horizon" in grid:       # the builders' horizon is the grid's H, which the cells read
        raise ValueError("sweep grid['horizon'] is not a grid key; the horizon is grid['H']")
    _check_params(fixture, FIXTURES[fixture], [{"H": "horizon"}.get(k, k) for k in grid])
    for key, values in grid.items():
        # H is an int and the others JSON numbers; bool is an int subclass, and the
        # builders would truncate 4.5 to 4 or fail only inside a cell
        types = (int,) if key == "H" else (int, float)
        bad = [v for v in values if type(v) not in types]
        if bad:
            raise ValueError(f"sweep grid[{key!r}] must hold {'ints' if key == 'H' else 'numbers'}, "
                             f"got {bad[0]!r}")
    algo = config.get("algo", "")
    if algo not in ("", "jbc", "jirl", "malice", "blades"):
        raise ValueError(f"unknown algo {algo!r}")
    rounds = config.get("rounds", 200)
    base_seed = config.get("base_seed", 0)
    for name, value, low in (("rounds", rounds, 1), ("base_seed", base_seed, 0)):
        if type(value) is not int or value < low:   # bool is an int subclass
            raise ValueError(f"sweep {name} must be an int of at least {low}, got {value!r}")
    if "rounds" in config and algo in ("", "jbc"):
        raise ValueError(f"sweep rounds is read only with algo jirl, malice or blades, not {algo!r}")
    out = config.get("out", "sweep.csv")
    if not isinstance(out, str) or not out:
        raise ValueError(f"sweep out must be a nonempty path string, got {out!r}")
    keys = sorted(grid)
    rows, violations = [], 0
    for idx, cell in enumerate(itertools.product(*(grid[k] for k in keys))):
        params = dict(zip(keys, cell))
        seed = int(np.random.SeedSequence(entropy=base_seed, spawn_key=(idx,)).generate_state(1)[0])
        t0 = time.perf_counter()
        try:
            row = _sweep_cell(fixture, params, algo, seed, rounds)
        except Exception as exc:  # partial failures are recorded per row
            row = ReportRow(suite="sweep", fixture=fixture, algo=algo, H=params.get("H"),
                            beta=params.get("beta"), u=params.get("u"), eps=params.get("eps"),
                            seed=seed, passed=False, error=f"{type(exc).__name__}: {exc}")
            violations += isinstance(exc, CoverageError)
        row.runtime_ms = (time.perf_counter() - t0) * 1000.0  # error rows keep the work done
        rows.append(row)
    summary = {
        "cells": len(rows),
        "passed": sum(r.passed is True for r in rows),
        "failed": sum(r.passed is False for r in rows),
        "assumption_violations": violations,
        "fixture": fixture,
        "algo": algo,
    }
    return rows, summary
