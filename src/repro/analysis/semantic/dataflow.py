"""Generic forward fixpoint dataflow engine over the per-function CFG.

A client supplies three things: an initial environment for the entry
node, a *transfer* function mapping (node, in-env) to an out-env, and a
*join* for merging environments at control-flow merges.  Environments
are plain ``dict[str, value]``; the engine iterates a worklist until no
out-environment changes, which terminates as long as the client's value
lattice has finite height (the cycle-domain lattice has height 2).

The engine is deliberately small: passes that need whole-program
context run it per function after computing global summaries.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.semantic.cfg import CFG, Node

Env = dict[str, object]


def join_envs(envs: list[Env], merge: Callable[[object, object], object]) -> Env:
    """Key-wise merge; a key missing from one branch merges with None."""
    if not envs:
        return {}
    keys: set[str] = set()
    for env in envs:
        keys.update(env)
    out: Env = {}
    for key in keys:
        value = envs[0].get(key)
        for env in envs[1:]:
            value = merge(value, env.get(key))
        if value is not None:
            out[key] = value
    return out


def run_forward(
    cfg: CFG,
    init: Env,
    transfer: Callable[[Node, Env], Env],
    merge: Callable[[object, object], object],
    max_iterations: int = 10000,
) -> dict[Node, Env]:
    """Iterate to fixpoint; returns each node's *in*-environment.

    ``transfer`` must return a fresh dict (the engine never aliases the
    environments it hands out).  ``merge`` combines two lattice values
    (``None`` = unknown/bottom).
    """
    in_env: dict[Node, Env] = {cfg.entry: dict(init)}
    out_env: dict[Node, Env] = {}
    worklist = [cfg.entry]
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > max_iterations:  # pathological CFG: give up soundly
            break
        node = worklist.pop(0)
        env_in = in_env.get(node, {})
        env_out = transfer(node, dict(env_in))
        if out_env.get(node) == env_out:
            continue
        out_env[node] = env_out
        for succ in node.succs:
            merged = join_envs(
                [out_env[p] for p in succ.preds if p in out_env],
                merge,
            )
            if in_env.get(succ) != merged:
                in_env[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)
            elif succ not in out_env and succ not in worklist:
                worklist.append(succ)
    return in_env
