"""The state of a PortfolioEnv between steps, read from its private fields.

The env exposes only what the commands read: the observation, reward, done
and bankrupt flags of a step, the clock, a wave's live lanes' regimes and
the effective prices. Tests that check its accounting read the rest here,
and oracles that replay episodes with the float step show a one-lane env to
an evaluation policy through BatchOfOne.
"""

from types import SimpleNamespace

import numpy as np


def env_state(env):
    """A copy of env's state at its current clock t: the effective prices,
    the observation window's price rows, holdings, cash, wealth, the regime,
    the permanent-impact multipliers, and the episode's unaffected prices
    and regime path (rows 0..N)."""
    t = env._t
    return SimpleNamespace(
        t=t,
        prices=env._unaffected[t] * env._mult,
        # rows t .. t+window-1 of the shifted buffer end at time t
        history=env._eff_hist[t : t + env._window].copy(),
        holdings=env._holdings.copy(),
        cash=env._cash,
        wealth=env._wealth,
        regime=env._regimes[t],
        multipliers=env._mult.copy(),
        unaffected=env._unaffected.copy(),
        regimes=list(env._regimes),
    )


class BatchOfOne:
    """A one-lane env read as a batch of one, through the views a wave gives
    an evaluation policy: config, t, live, regimes() and observations().

    reset(episode) and step(actions) drive the lane, step with actions[0];
    observations() is the observation the lane's last reset or step
    returned, and regimes() its true label at the current clock.
    """

    def __init__(self, env):
        self.env = env
        self.config = env.config

    def reset(self, episode):
        self._obs = self.env.reset(episode=episode)

    def step(self, actions):
        result = self.env.step(actions[0])
        self._obs = result.observation
        return result

    @property
    def t(self):
        return self.env.t

    @property
    def live(self):
        return np.arange(0 if self.env.done else 1)

    def regimes(self):
        return np.array([self.env._regimes[self.env.t]])

    def observations(self):
        return self._obs[None]
