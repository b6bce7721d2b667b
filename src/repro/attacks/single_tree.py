"""Single-tree selfish-mining baseline (Section 4 of the paper).

The baseline "exactly follows the classic selfish mining attack in Bitcoin
[Eyal-Sirer], however it grows a private tree fork rather than a private chain."
The paper omits its formal model; our interpretation, stated here, transplants
the Eyal-Sirer publication rule onto a private tree:

* Each *round* starts at a common tip.  The adversary roots a private tree at
  that tip; the tree has depth at most ``max_depth`` (the paper's ``l``) and at
  most ``max_width`` (the paper's ``f``) nodes per level.
* At every time step the adversary mines on every extendable tree node (a node
  whose child level is not yet full) and the honest miners on the public tip;
  the probability of each outcome follows the same ``(p, k)``-mining
  normalisation as the main model.
* Publication follows the classic rule, applied to the depth of the tree (the
  length of its longest path) after every honest block.  With ``lead`` the tree
  depth minus the public-chain length measured from the fork point:

  - empty tree: the adversary abandons the round (the honest block stands);
  - ``lead >= 2``: keep mining privately;
  - ``lead == 1``: publish the longest path -- it is strictly longer than the
    public chain, so the adversary wins the whole round;
  - ``lead == 0``: publish the longest path and race; honest miners switch with
    probability ``gamma``.

* The round then ends and both sides restart from the new tip.

Because every step strictly increases either the public-chain length or some
tree level, a round visits finitely many states and the expected per-round
adversarial and honest rewards can be computed exactly by memoised recursion;
the long-run expected relative revenue follows from the renewal-reward theorem.
A Monte-Carlo estimator is provided as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .._validation import check_positive_int, check_probability
from ..config import ProtocolParams

#: Within-round state: (public_blocks_since_fork, tree_level_occupancies).
_RoundState = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class SingleTreeParams:
    """Parameters of the single-tree baseline attack.

    Attributes:
        max_depth: Maximal depth of the private tree (paper: ``l = 4``).
        max_width: Maximal number of tree nodes per level (paper: ``f = 5``).
    """

    max_depth: int = 4
    max_width: int = 5

    def __post_init__(self) -> None:
        check_positive_int(self.max_depth, "max_depth")
        check_positive_int(self.max_width, "max_width")


def _tree_depth(levels: Tuple[int, ...]) -> int:
    """Depth of the private tree: deepest non-empty level."""
    depth = 0
    for index, count in enumerate(levels, start=1):
        if count > 0:
            depth = index
    return depth


def _extendable_levels(levels: Tuple[int, ...], max_width: int) -> Dict[int, int]:
    """Map from parent level (0 = root) to number of extendable parent nodes."""
    parents: Dict[int, int] = {}
    counts = (1,) + levels  # level 0 is the fork-point block (the root)
    for parent_level in range(len(levels)):
        if levels[parent_level] < max_width and counts[parent_level] > 0:
            parents[parent_level] = counts[parent_level]
    return parents


def _honest_block_outcome(
    public_length: int, levels: Tuple[int, ...], gamma: float
) -> Tuple[str, Tuple[float, float]]:
    """Resolve the publication rule right after an honest block.

    Returns:
        ``("continue", (0, 0))`` if the round goes on, or ``("end", (E[A], E[H]))``
        with the expected round rewards if the round terminates now.
    """
    depth = _tree_depth(levels)
    if depth == 0:
        return "end", (0.0, float(public_length))
    lead = depth - public_length
    if lead >= 2:
        return "continue", (0.0, 0.0)
    if lead == 1:
        # Publishing the longest path beats the public chain outright.
        return "end", (float(depth), 0.0)
    # lead == 0: equal length, gamma race.
    return "end", (gamma * depth, (1.0 - gamma) * public_length)


def _round_expectations(
    protocol: ProtocolParams, params: SingleTreeParams
) -> Tuple[float, float]:
    """Exact expected (adversarial, honest) finalised blocks of one attack round."""
    p = protocol.p
    gamma = protocol.gamma
    max_width = params.max_width
    cache: Dict[_RoundState, Tuple[float, float]] = {}

    def expectation(state: _RoundState) -> Tuple[float, float]:
        if state in cache:
            return cache[state]
        public_length, levels = state
        parents = _extendable_levels(levels, max_width)
        sigma = sum(parents.values())
        denominator = (1.0 - p) + p * sigma
        if denominator <= 0.0:
            # p == 1 with a saturated tree: the adversary eventually wins everything.
            result = (float(_tree_depth(levels)), 0.0)
            cache[state] = result
            return result

        adversary_total = 0.0
        honest_total = 0.0

        # Adversarial outcomes: extend one of the extendable levels.
        for parent_level, count in parents.items():
            probability = p * count / denominator
            new_levels = list(levels)
            new_levels[parent_level] += 1
            successor = (public_length, tuple(new_levels))
            sub_adv, sub_hon = expectation(successor)
            adversary_total += probability * sub_adv
            honest_total += probability * sub_hon

        # Honest outcome: the public chain grows by one block.
        honest_probability = (1.0 - p) / denominator
        if honest_probability > 0.0:
            new_public = public_length + 1
            verdict, rewards = _honest_block_outcome(new_public, levels, gamma)
            if verdict == "end":
                adversary_total += honest_probability * rewards[0]
                honest_total += honest_probability * rewards[1]
            else:
                sub_adv, sub_hon = expectation((new_public, levels))
                adversary_total += honest_probability * sub_adv
                honest_total += honest_probability * sub_hon

        cache[state] = (adversary_total, honest_total)
        return cache[state]

    start: _RoundState = (0, tuple(0 for _ in range(params.max_depth)))
    return expectation(start)


def single_tree_errev(protocol: ProtocolParams, params: SingleTreeParams | None = None) -> float:
    """Exact expected relative revenue of the single-tree baseline.

    Computed from per-round expectations via the renewal-reward theorem:
    ``ERRev = E[adversarial blocks per round] / E[all blocks per round]``.
    """
    params = params or SingleTreeParams()
    p = check_probability(protocol.p, "p")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    adversary, honest = _round_expectations(protocol, params)
    total = adversary + honest
    if total <= 0.0:
        return 0.0
    return adversary / total


def simulate_single_tree_errev(
    protocol: ProtocolParams,
    params: SingleTreeParams | None = None,
    *,
    num_rounds: int = 20_000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the single-tree baseline's ERRev.

    Used by the test suite as an independent cross-check of the exact recursion.
    """
    params = params or SingleTreeParams()
    p = protocol.p
    gamma = protocol.gamma
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    rng = np.random.default_rng(seed)
    adversary_blocks = 0.0
    honest_blocks = 0.0
    for _ in range(num_rounds):
        public_length = 0
        levels = [0] * params.max_depth
        while True:
            parents = _extendable_levels(tuple(levels), params.max_width)
            sigma = sum(parents.values())
            denominator = (1.0 - p) + p * sigma
            draw = rng.random() * denominator
            threshold = 0.0
            extended = False
            for parent_level, count in parents.items():
                threshold += p * count
                if draw < threshold:
                    levels[parent_level] += 1
                    extended = True
                    break
            if extended:
                continue
            # Honest block found.
            public_length += 1
            depth = _tree_depth(tuple(levels))
            if depth == 0:
                honest_blocks += public_length
                break
            lead = depth - public_length
            if lead >= 2:
                continue
            if lead == 1:
                adversary_blocks += depth
                break
            # lead == 0: gamma race.
            if rng.random() < gamma:
                adversary_blocks += depth
            else:
                honest_blocks += public_length
            break
    total = adversary_blocks + honest_blocks
    return adversary_blocks / total if total else 0.0
