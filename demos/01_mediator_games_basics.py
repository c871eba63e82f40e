"""Build a mediator-coordinated Markov game from scratch and poke at it.

A mediator draws a joint action every step and whispers to each agent only
its own component.  This script builds a tiny two-agent game by hand,
validates it, samples trajectories, and shows what happens to the joint
play when one agent filters its recommendations through a deviation map.

Run:  python demos/01_mediator_games_basics.py
"""

import numpy as np

from regretgap import (
    Deviation,
    MarkovGame,
    MediatorPolicy,
    induced_joint_policy,
    occupancy_bundle,
    sample_demonstrations,
    validate_game,
    values,
)

# --- a two-state commute: stay on the highway or take the side road -------
# Joint actions are flattened row-major by agent: with two actions each,
# index 0 = (main, main), 1 = (main, side), 2 = (side, main), 3 = (side, side).

T = np.zeros((2, 4, 2))
T[0, 0, 0] = 1.0          # both stay on the main road: still busy tomorrow
T[0, 1:, 1] = 1.0         # anyone reroutes: traffic clears
T[1, :, 0] = 0.3          # clear roads mostly stay clear
T[1, :, 1] = 0.7

rewards = np.zeros((2, 2, 4))
rewards[:, 0, 0] = -0.5   # sharing the busy road hurts both
rewards[:, 0, 1] = 0.2    # splitting helps
rewards[:, 0, 2] = 0.2
rewards[:, 1, :] = 0.5    # clear state is good regardless

game = MarkovGame(
    horizon=4,
    num_agents=2,
    states=("busy", "clear"),
    actions=(("main", "side"), ("main", "side")),
    transition=T,
    rewards=rewards,
    initial_dist=np.array([1.0, 0.0]),
)

report = validate_game(game)
print("game validates:", report.ok)

# --- a correlated mediator: send the drivers to different roads -----------
sigma = MediatorPolicy.from_rows(
    game,
    {
        "busy": {("main", "side"): 0.5, ("side", "main"): 0.5},
        "clear": {("main", "main"): 1.0},
    },
)
print("\nvalues under obedient play:", values(game, sigma))

occ = occupancy_bundle(game, sigma)
print("average state distribution:", dict(zip(game.states, occ.avg_state.round(3))))

# --- trajectories are reproducible by seed --------------------------------
traj = sample_demonstrations(game, sigma, n=1, seed=7)   # one row: one trajectory
print("\nsampled trajectory (state, joint action):",
      [(game.states[s], game.joint_tuple(a)) for s, a in zip(traj.states[0], traj.actions[0])])

demos = sample_demonstrations(game, sigma, n=5000, seed=7)
freq = demos.state_counts(game) / demos.states.size
print("empirical state frequencies over 5000 rollouts:", freq.round(3))

# --- one agent stops listening ---------------------------------------------
# Driver 0 ignores a "side" recommendation at the busy state and stays on
# the main road.  The induced joint play keeps the correlation with driver
# 1's recommendation: mass moves from (side, main) to (main, main).
stubborn = Deviation.from_entries(game, 0, [("busy", "side", "main")], label="stubborn")
deviated = induced_joint_policy(game, sigma, stubborn)
print("\nobedient row at busy: ", sigma.table[0].round(3))
print("deviated row at busy: ", deviated.table[0].round(3))
print("values if driver 0 is stubborn:", values(game, deviated))
gain = values(game, deviated)[0] - values(game, sigma)[0]
print(f"driver 0's gain from being stubborn: {gain:+.3f}"
      " (negative: the recommendations are self-enforcing here)")

from regretgap import best_response_deviation

br = best_response_deviation(game, sigma, agent=0)
print("best possible filtering gains driver 0:", br.gain)
