import random

import pytest

from askbd.exprs import DivisionByZero, Expr, Lit, make_bin


def _integer_leaf(rng: random.Random) -> Expr:
    return Lit(rng.randint(1, 12))


def random_expr(rng: random.Random, max_depth: int = 4, leaf=_integer_leaf) -> Expr:
    """Random tree with `leaf(rng)` leaves, by default integers 1-12;
    division nodes kept sound."""
    if max_depth <= 1 or rng.random() < 0.3:
        return leaf(rng)
    op = rng.choice("++--**/")
    left = random_expr(rng, max_depth - 1, leaf)
    right = random_expr(rng, max_depth - 1, leaf)
    try:
        return make_bin(op, left, right, grouped=rng.random() < 0.2)
    except DivisionByZero:
        return make_bin("+", left, right)


@pytest.fixture
def rng():
    return random.Random(0xA5BD)


LEAF_QUESTION = (
    "Each gust of wind blows a leaf 5 feet forward along the sidewalk, and "
    "after each gust a swirl blows it back 2 feet. How far down the sidewalk "
    "has the leaf traveled after 11 gusts?"
)

LEAF_SOLUTION = (
    "Step 1. Each gust blows the leaf forward 5 feet, so 11 gusts will blow "
    "it forward $5 \\times 11 = 55$ feet. "
    "Step 2. Each swirl after a gust blows it back 2 feet, so 11 swirls will "
    "blow it back $2 \\times 11 = 22$ feet. "
    "Step 3. After 11 gusts, the leaf has traveled $55 - 22 = 33$ feet down "
    "the sidewalk."
)


@pytest.fixture
def leaf_record():
    from askbd.records import make_record, parse_structured_solution

    steps = parse_structured_solution(LEAF_SOLUTION)
    return make_record(
        question=LEAF_QUESTION,
        steps=steps,
        answer=33,
        origin="D",
    )
