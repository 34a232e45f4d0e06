"""Seeded synthetic chain records for the altgen-deep workload.

Each record is a word problem whose solution is a tree of binary steps:
every step combines two operands, each either a fresh condition value
from the question or the result of an earlier step, and every earlier
result is consumed exactly once. All condition values, intermediate
results and the answer are pairwise distinct positive integers, which is
what `askbd.demo.oracle_clean` demands and what keeps the label oracle
exact.

A record is made in two parts. Its plan (the tree's shape and the
operator of each step) comes from a fixed catalogue, drawn once without
regard to the seed, `PLANS_PER_MIX` plans for each operator count in
OPERATOR_MIX. The seed draws the numbers that fill the plan and the
wording. How many distinct rewrites a record has depends on its plan (a
product over a sum can be distributed; commuting and reassociating stay
in one canonical class), so a fixed catalogue keeps the workload's mix of
rewrite paths, from records with a single candidate to records with k,
the same at every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from askbd.alternatives import CompositionError, compose_solving_expression
from askbd.demo import NAMES, oracle_clean
from askbd.records import SolutionRecord, SolutionStep, make_record

OPERATOR_MIX = (4, 6, 8, 10)
PLANS_PER_MIX = 20
MAX_VALUE = 50_000
# a catalogue plan must be filled within this many draws of the fixed
# generator, so that every seed fills it after a few draws
PLAN_TRIES = 20
MAX_FILL_TRIES = 20_000
_STATEMENTS = (
    "Next, {calc} = {result} units.",
    "That gives {calc} = {result} units.",
    "Combining them, {calc} = {result} units.",
    "So the tally becomes {calc} = {result} units.",
)

# A plan is a list of steps (op, left, right); an operand is None for a
# fresh condition value, or the index of the earlier step whose result it is.
Plan = list[tuple[str, "int | None", "int | None"]]


def _random_plan(rng: random.Random, n_ops: int) -> Plan:
    plan: Plan = []
    pending: list[int] = []
    for k in range(n_ops):
        steps_after = n_ops - k - 1
        # every later step shrinks `pending` by at most one, and exactly one
        # result (the answer) may remain at the end
        shapes = []
        if len(pending) + 1 <= steps_after + 1:
            shapes += ["cc"]
        if pending and len(pending) <= steps_after + 1:
            shapes += ["pc"] * 3
        if len(pending) >= 2:
            shapes += ["pp"]
        shape = rng.choice(shapes)
        if shape == "pp":
            operands = [pending.pop(rng.randrange(len(pending))),
                        pending.pop(rng.randrange(len(pending)))]
        elif shape == "pc":
            operands = [pending.pop(rng.randrange(len(pending))), None]
            rng.shuffle(operands)
        else:
            operands = [None, None]
        plan.append((rng.choice("+-*/"), operands[0], operands[1]))
        pending.append(k)
    return plan


def _apply(op: str, left: int, right: int) -> int | None:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    return left // right if left % right == 0 else None


def _fresh(rng: random.Random, used: set[int], op: str, other: int, fresh_is_left: bool) -> int | None:
    """A new condition value that `op` combines with `other` into a positive
    integer, or None when there is none."""
    if op == "-":
        options = range(other + 1, other + 40) if fresh_is_left else range(2, other - 1)
    elif op == "/":
        options = ([other * m for m in range(2, 13)] if fresh_is_left
                   else [d for d in range(2, 41) if other % d == 0])
    else:
        options = range(2, 41)
    options = [v for v in options if v not in used]
    return rng.choice(options) if options else None


def _fill(rng: random.Random, plan: Plan, name: str) -> SolutionRecord | None:
    """A record following `plan` with numbers drawn from `rng`, or None
    when the draw breaks a constraint."""
    used: set[int] = set()
    conditions: list[int] = []
    results: list[int] = []
    rows: list[tuple[str, str, int]] = []
    for op, left_src, right_src in plan:
        left = results[left_src] if left_src is not None else None
        right = results[right_src] if right_src is not None else None
        if left is None and right is None:
            right = rng.choice([v for v in range(2, 41) if v not in used])
            used.add(right)
        if left is None:
            left = _fresh(rng, used, op, right, fresh_is_left=True)
        elif right is None:
            right = _fresh(rng, used, op, left, fresh_is_left=False)
        if left is None or right is None:
            return None
        result = _apply(op, left, right)
        if result is None or not 1 < result <= MAX_VALUE or result in used | {left, right}:
            return None
        conditions += [v for v, src in ((left, left_src), (right, right_src)) if src is None]
        used.update((left, right, result))
        results.append(result)
        calc = f"{left} {op} {right}"
        rows.append((rng.choice(_STATEMENTS).format(calc=calc, result=result), calc, result))
    listed = ", ".join(str(c) for c in conditions[:-1]) + f" and {conditions[-1]}"
    question = (
        f"{name} keeps a ledger of supply crates holding {listed} units. "
        f"Working through the ledger one entry at a time, what final total does {name} report?"
    )
    steps = [
        SolutionStep(index=index, statement=statement, expression=calc,
                     stated_result=Fraction(result))
        for index, (statement, calc, result) in enumerate(rows, start=1)
    ]
    record = make_record(question=question, steps=steps, answer=results[-1])
    if not oracle_clean(record):
        return None
    try:
        compose_solving_expression(record)
    except CompositionError:
        return None
    return record


def _catalogue() -> dict[int, list[Plan]]:
    """PLANS_PER_MIX fillable plans per operator count, the same at every seed."""
    rng = random.Random("chains|plans")
    plans: dict[int, list[Plan]] = {}
    for n_ops in OPERATOR_MIX:
        plans[n_ops] = []
        while len(plans[n_ops]) < PLANS_PER_MIX:
            plan = _random_plan(rng, n_ops)
            if any(_fill(rng, plan, NAMES[0]) for _ in range(PLAN_TRIES)):
                plans[n_ops].append(plan)
    return plans


def chain_records(seed: int, per_mix: int) -> list[SolutionRecord]:
    """The first `per_mix` catalogue plans of each operator count in
    OPERATOR_MIX, filled with numbers drawn from `seed`; each record passes
    `compose_solving_expression` and `oracle_clean`."""
    if not 0 < per_mix <= PLANS_PER_MIX:
        raise ValueError(f"per_mix must be in 1..{PLANS_PER_MIX}")
    rng = random.Random(f"chains|{seed}")
    records: list[SolutionRecord] = []
    for n_ops, plans in _catalogue().items():
        for plan in plans[:per_mix]:
            for _ in range(MAX_FILL_TRIES):
                record = _fill(rng, plan, rng.choice(NAMES))
                if record is not None:
                    records.append(record)
                    break
            else:
                raise RuntimeError(f"no numbers fit a {n_ops}-step plan at seed {seed}")
    return records
