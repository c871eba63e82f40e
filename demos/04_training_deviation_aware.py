"""Training mediators: cloning, moment matching, and the deviation-aware pair.

On a covered random game all four learners do fine.  The interesting part
is the zero-coverage fork game: cloning fills the unvisited fork state
arbitrarily (here: adversarially), which costs H-2 of regret gap, while
the queryable-expert learner rolls out its own deviations, asks the expert
about exactly the states those deviations reach, and drives the gap to
near zero.

Run:  python demos/04_training_deviation_aware.py
"""

from regretgap import (
    DeviationClass,
    ExpertOracle,
    TrainConfig,
    blades_train,
    coverage_constant,
    j_bc,
    j_irl,
    malice_train,
    recoverability_constant,
    regret_gap,
    sample_demonstrations,
    value_gap,
)
from regretgap.fixtures import fig1_game, random_deviation_class, random_mg

# --- a covered random game: everything works -------------------------------
fx = random_mg(42, n_states=5, horizon=5, action_counts=(2, 3),
               full_coverage_expert=True)
game, expert = fx.game, fx.expert
phi = random_deviation_class(game, per_agent=4, seed=1)
beta = coverage_constant(game, expert)
u = recoverability_constant(game, expert, phi)
print(f"random game: |S|={game.n_states}, H={game.horizon}, beta={beta:.4f}, u={u:.3f}")

clone = j_bc(game, expert=expert, fill_rule="uniform")
print("\nj_bc (exact fit):      regret gap", f"{regret_gap(game, expert, clone, phi):+.6f}")

irl = j_irl(game, expert, rounds=300)
print("j_irl (moment match):  final moment error", f"{irl.final_error:.5f},",
      "value gap", f"{value_gap(game, expert, irl.policy):+.6f}")

cfg = TrainConfig(rounds=400)
mal = malice_train(game, expert, phi, cfg)
gap_m = regret_gap(game, expert, mal.policy, phi)
print("malice (reweighted):   self-consistent loss", f"{mal.final_loss:.5f},",
      "regret gap", f"{gap_m:+.6f},", "bound", f"{2 * mal.final_loss * u * game.horizon:.5f}")

oracle = ExpertOracle(expert)
demos = sample_demonstrations(game, expert, 200, seed=0)
bla = blades_train(game, oracle, demos, phi, cfg)
gap_b = regret_gap(game, expert, bla.policy, phi)
print("blades (queryable):    self-consistent loss", f"{bla.final_loss:.5f},",
      "regret gap", f"{gap_b:+.6f},", "queries", bla.query_count)

# --- the fork game: coverage is the whole difference -----------------------
H = 7
fx1 = fig1_game(H)
complete = DeviationClass.complete(2)
print(f"\nfork game, H={H}: the expert never visits the second fork")
print("expert coverage floor:", coverage_constant(fx1.game, fx1.expert), "(zero!)")

worst_clone = j_bc(fx1.game, expert=fx1.expert, fill_rule="adversarial-worst-case",
                   deviations=complete)
print("j_bc, adversarial fill at the unseen state: regret gap",
      regret_gap(fx1.game, fx1.expert, worst_clone, complete), f"(= H-2 = {H - 2})")

try:
    malice_train(fx1.game, fx1.expert, fx1.witness_class(), TrainConfig(rounds=5))
except Exception as exc:
    print("malice refuses (no coverage):", type(exc).__name__)

oracle = ExpertOracle(fx1.expert)
demos = sample_demonstrations(fx1.game, fx1.expert, 50, seed=1)
res = blades_train(fx1.game, oracle, demos, fx1.witness_class(), TrainConfig(rounds=500))
print("blades with exponentiated gradient: regret gap",
      f"{regret_gap(fx1.game, fx1.expert, res.policy, complete):.5f}",
      f"after {res.query_count} expert queries")
print("\nquerying the expert on deviation-reachable states is exactly the"
      "\ninformation cloning is missing.")
