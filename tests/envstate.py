"""The state of a PortfolioEnv between steps, read from its private fields.

The env exposes only what the commands read: the observation, reward, done
and bankrupt flags of a step, the clock, the live lanes' regimes and the
effective prices. Tests that check its accounting read the rest here.
"""

from types import SimpleNamespace


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
