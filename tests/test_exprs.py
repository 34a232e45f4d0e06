import itertools
import random
from fractions import Fraction

import pytest

from askbd.exprs import (
    Bin,
    DepthExceeded,
    DivisionByZero,
    ExprSyntaxError,
    Lit,
    MAX_DEPTH,
    apply_op,
    canonical_form,
    depth,
    enumerate_permutations,
    eval_expr,
    eval_with_literal,
    format_value,
    number_value,
    parse_expr,
    rational,
    rewrite_neighbors,
    to_text,
)
from askbd.demo import build_labeled_corpus
from askbd.records import number_tokens, parse_rational
from conftest import random_expr


class TestParse:
    def test_leaf_problem_shape(self):
        e = parse_expr("5 * 11 - 2 * 11")
        assert e == Bin("-", Bin("*", Lit(5), Lit(11)), Bin("*", Lit(2), Lit(11)))

    def test_single_literal(self):
        assert parse_expr("7") == Lit(7)

    def test_grouped_bracket(self):
        e = parse_expr("(5 - 2) * 11")
        assert e == Bin("*", Bin("-", Lit(5), Lit(2), grouped=True), Lit(11))

    def test_unicode_aliases(self):
        assert eval_expr(parse_expr("5 × 11 − 44 ÷ 2")) == 33

    def test_decimal_is_exact(self):
        assert parse_expr("2.5") == Lit(Fraction(5, 2))

    def test_rerender_reparse_fixed_point(self, rng):
        # Oracle: rendering and re-parsing reaches a fixed point.
        for _ in range(200):
            e = random_expr(rng)
            text = to_text(e)
            again = parse_expr(text)
            assert to_text(again) == text

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("3 + x")
        assert err.value.position == 4

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("3 + 4 )")

    def test_unary_minus_not_in_grammar(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("-3")

    def test_depth_limit(self):
        text = "(" * 20 + "1" + ")" * 20
        with pytest.raises(DepthExceeded):
            parse_expr(text)

    @pytest.mark.parametrize("text", [
        " + ".join(["1"] * 2000),
        " - ".join(["9"] * 2000) + " / 3",
    ], ids=["plus-chain", "minus-chain-then-divide"])
    def test_an_operator_chain_of_any_length_is_too_deep(self, text):
        # depth is counted while parsing, so no tree walk can overflow the stack
        with pytest.raises(DepthExceeded):
            parse_expr(text)

    def test_depth_limit_counts_tree_levels(self):
        assert depth(parse_expr(" + ".join(["1"] * MAX_DEPTH))) == MAX_DEPTH
        with pytest.raises(DepthExceeded):
            parse_expr(" + ".join(["1"] * (MAX_DEPTH + 1)))

    def test_division_by_zero_at_construction(self):
        with pytest.raises(DivisionByZero):
            parse_expr("4 / (3 - 3)")


class TestNumberValue:
    @pytest.mark.parametrize("text, kind", [
        ("0", int), ("007", int), ("12", int), ("12.0", int),
        ("2.5", Fraction), (".5", Fraction), ("12.50", Fraction), ("0.125", Fraction),
    ], ids=["0", "007", "12", "12.0", "2.5", ".5", "12.50", "0.125"])
    def test_equals_the_fraction_of_its_text(self, text, kind):
        # the normal form: an int exactly when the value is a whole number
        value = number_value(text)
        assert value == Fraction(text) and type(value) is kind


def _value_or_error(evaluate):
    try:
        return evaluate()
    except DivisionByZero:
        return DivisionByZero


class TestEvalWithLiteral:
    """Evaluating with one literal swapped equals re-parsing and evaluating
    the text with that number token swapped."""

    def _check(self, text, k, value):
        start, end, _ = number_tokens(text)[k]
        swapped = text[:start] + format_value(value) + text[end:]
        tree = parse_expr(text)
        assert _value_or_error(lambda: eval_with_literal(tree, k, value)) == _value_or_error(
            lambda: eval_expr(parse_expr(swapped))
        ), (text, k, value)

    def test_every_literal_of_every_demo_step(self):
        expressions = {
            step.expression
            for group in build_labeled_corpus(50, seed=2024)
            for record in group
            for step in record.steps
            if step.expression is not None
        }
        for text in sorted(expressions):
            for k, (_, _, value) in enumerate(number_tokens(text)):
                for offset in range(-5, 6):
                    if value + offset >= 0:
                        self._check(text, k, value + offset)
                self._check(text, k, Fraction(1, 4))

    def test_a_swap_that_zeros_a_divisor_raises(self):
        self._check("10 / (5 - 3)", 2, Fraction(5))
        with pytest.raises(DivisionByZero):
            eval_with_literal(parse_expr("10 / (5 - 3)"), 2, Fraction(5))
        assert eval_with_literal(parse_expr("10 / (5 - 3)"), 2, Fraction(4)) == 10


def _random_literal(rng: random.Random) -> str:
    """An integer or decimal `NUMBER` token; some decimals are whole."""
    whole = str(rng.randint(0, 12))
    if rng.random() < 0.5:
        return whole
    decimals = rng.choice(["0", "5", "25", "125", "50", "75", "2", "000"])
    return rng.choice([whole, ""]) + "." + decimals


def _parsed_leaf(rng: random.Random) -> Lit:
    return Lit(number_value(_random_literal(rng)))


def _reference_value(e, swap: tuple[int, Fraction] | None = None) -> Fraction:
    """Value of `e` on Fractions alone, with literal `swap[0]` (counted left
    to right from 0) set to `swap[1]`; a zero divisor raises
    ZeroDivisionError."""
    leaves = itertools.count()

    def walk(node) -> Fraction:
        if isinstance(node, Lit):
            k = next(leaves)
            return Fraction(swap[1] if swap is not None and k == swap[0] else node.value)
        lv, rv = walk(node.left), walk(node.right)
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        return lv / rv

    return walk(e)


def _values(e):
    """Every literal and every subtree value of `e`, as `eval_expr` gives it."""
    yield eval_expr(e)
    if isinstance(e, Bin):
        yield from _values(e.left)
        yield from _values(e.right)


def _assert_normal(value):
    # never a float; an int exactly when the value is whole
    assert type(value) in (int, Fraction), (value, type(value))
    assert (type(value) is int) == (value.denominator == 1), (value, type(value))


class TestNormalForm:
    """Values are exact and in one normal form on every path through `exprs`."""

    def test_random_trees_against_a_fraction_reference(self):
        rng = random.Random(0x17)
        for _ in range(400):
            e = random_expr(rng, leaf=_parsed_leaf)
            expected = _reference_value(e)
            canon = canonical_form(e)
            assert eval_expr(e) == expected and _reference_value(canon) == expected
            for value in itertools.chain(_values(e), _values(canon)):
                _assert_normal(value)
                again = parse_rational(format_value(value))
                assert again == value and type(again) is type(value), value
            n_leaves = len(list(_values(e))) // 2 + 1
            for k in range(n_leaves):
                swapped = number_value(_random_literal(rng))
                try:
                    reference = _reference_value(e, (k, swapped))
                except ZeroDivisionError:
                    with pytest.raises(DivisionByZero):
                        eval_with_literal(e, k, swapped)
                    continue
                value = eval_with_literal(e, k, swapped)
                assert value == reference
                _assert_normal(value)

    @pytest.mark.parametrize("op, lv, rv, expected", [
        ("/", 6, 3, 2), ("/", 1, 3, Fraction(1, 3)), ("/", Fraction(5, 2), Fraction(1, 2), 5),
        ("+", Fraction(1, 2), Fraction(1, 2), 1), ("*", Fraction(2, 3), 3, 2),
        ("-", Fraction(7, 2), 3, Fraction(1, 2)),
    ])
    def test_apply_op_reduces_a_whole_result_to_an_int(self, op, lv, rv, expected):
        value = apply_op(op, lv, rv)
        assert value == expected and type(value) is type(expected)

    def test_literals_and_parsed_rationals_take_the_normal_form(self):
        assert [(v, type(v)) for v in (rational(Fraction(6, 2)), rational(2.5), rational(7))] \
            == [(3, int), (Fraction(5, 2), Fraction), (7, int)]
        assert [(v, type(v)) for v in map(parse_rational, ("12", "2.5", "1/3", "4/2"))] == [
            (12, int), (Fraction(5, 2), Fraction), (Fraction(1, 3), Fraction), (2, int)
        ]


class TestEval:
    def test_leaf_value(self):
        assert eval_expr(parse_expr("5*11 - 2*11")) == 33

    def test_zero_literal(self):
        assert eval_expr(parse_expr("0")) == 0

    def test_grouping_does_not_change_value(self):
        assert eval_expr(parse_expr("(5-2)*11")) == 33

    def test_agrees_with_float_eval_on_integers(self, rng):
        # Oracle: double-precision evaluation agrees exactly when the
        # rational value is an integer of modest size.
        for _ in range(300):
            e = random_expr(rng)
            exact = eval_expr(e)
            approx = _float_eval(e)
            if exact.denominator == 1 and abs(exact) < 2**40:
                assert abs(approx - exact) < 1e-6


def _float_eval(e) -> float:
    if isinstance(e, Lit):
        return float(e.value)
    lv, rv = _float_eval(e.left), _float_eval(e.right)
    return {"+": lv + rv, "-": lv - rv, "*": lv * rv, "/": lv / rv if rv else float("nan")}[e.op]


class TestCanonical:
    def test_commuted_products_collapse(self):
        assert canonical_form(parse_expr("11*5 - 11*2")) == canonical_form(
            parse_expr("5*11 - 2*11")
        )

    def test_factored_and_expanded_stay_distinct(self):
        assert canonical_form(parse_expr("(5-2)*11")) != canonical_form(
            parse_expr("5*11-2*11")
        )

    def test_literal_fixed_point(self):
        assert canonical_form(parse_expr("3")) == Lit(3)

    def test_idempotent(self, rng):
        for _ in range(300):
            e = random_expr(rng)
            c = canonical_form(e)
            assert canonical_form(c) == c

    def test_drops_grouping(self):
        c = canonical_form(parse_expr("(3 + 4)"))
        assert isinstance(c, Bin) and not c.grouped

    def test_flattens_and_sorts_chains(self):
        assert canonical_form(parse_expr("3 + (1 + 2)")) == canonical_form(
            parse_expr("(2 + 3) + 1")
        )


class TestHash:
    def test_a_hashed_node_and_an_equal_unhashed_one_agree(self, rng):
        for _ in range(200):
            e = random_expr(rng)
            text = to_text(e, "step_brackets")
            hashed, fresh = parse_expr(text), parse_expr(text)
            hash(hashed)  # caches the hash of every node of `hashed`
            assert hashed == fresh and hash(hashed) == hash(fresh)
            assert fresh in {hashed} and hashed in {fresh: None}
            # a new tree over a hashed subtree hashes as one built fresh
            if isinstance(hashed, Bin):
                rebuilt = Bin(hashed.op, hashed.left, fresh.right, hashed.grouped)
                assert rebuilt == fresh and hash(rebuilt) == hash(fresh)


class TestToText:
    def test_step_brackets_one_pair_per_node(self):
        assert to_text(parse_expr("(5-2)*11"), "step_brackets") == "((5 - 2) * 11)"

    def test_literal(self):
        assert to_text(Lit(3)) == "3"

    def test_minimal(self):
        assert to_text(parse_expr("5*11-2*11")) == "5 * 11 - 2 * 11"

    def test_minimal_keeps_required_brackets(self):
        assert to_text(parse_expr("(5 - 2) * 11")) == "(5 - 2) * 11"
        assert to_text(parse_expr("10 - (4 - 1)")) == "10 - (4 - 1)"

    def test_round_trip_evaluates_equal(self, rng):
        for _ in range(300):
            e = random_expr(rng)
            for style in ("minimal_brackets", "step_brackets"):
                assert eval_expr(parse_expr(to_text(e, style))) == eval_expr(e)

    def test_format_value(self):
        assert format_value(Fraction(33)) == "33"
        assert format_value(Fraction(5, 2)) == "2.5"
        assert format_value(Fraction(1, 3)) == "1/3"
        assert format_value(Fraction(-7, 4)) == "-1.75"


class TestRewrites:
    def test_every_rule_preserves_value(self, rng):
        for _ in range(300):
            e = random_expr(rng)
            for neighbor in rewrite_neighbors(e):
                assert eval_expr(neighbor) == eval_expr(e)

    def test_factor_reaches_factored_leaf_form(self):
        e = parse_expr("5 * 11 - 2 * 11")
        targets = {canonical_form(n) for n in rewrite_neighbors(e)}
        assert canonical_form(parse_expr("(5 - 2) * 11")) in targets

    def test_distribute_is_inverse_of_factor(self):
        e = parse_expr("(5 - 2) * 11")
        targets = {canonical_form(n) for n in rewrite_neighbors(e)}
        assert canonical_form(parse_expr("5 * 11 - 2 * 11")) in targets


# to_text of enumerate_permutations(parse_expr(text), 3, 16, seed), one tree
# each with 4, 6, 8 and 10 operators
PINNED_SEARCH = {
    ("2 * (3 + 4) * (5 - 1)", 0): [
        "(2 * 3 + 2 * 4) * (5 - 1)",
        "2 * (3 + 4) * 5 - 2 * (3 + 4) * 1",
        "(5 - 1) * 2 * (3 + 4)",
        "(2 * 3 + 2 * 4) * 5 - 2 * (3 + 4) * 1",
        "(2 * 3 + 2 * 4) * 5 - (2 * 3 + 2 * 4) * 1",
        "2 * (3 + 4) * 5 - (2 * 3 + 2 * 4) * 1",
        "2 * 3 * (5 - 1) + 2 * 4 * (5 - 1)",
        "2 * (3 + 4) * 5 - (2 * 3 * 1 + 2 * 4 * 1)",
        "2 * 3 * (5 - 1) + 2 * 4 * 5 - 2 * 4 * 1",
        "2 * 3 * 5 + 2 * 4 * 5 - (2 * 3 + 2 * 4) * 1",
        "(2 * 3 + 2 * 4) * 5 - (2 * 3 * 1 + 2 * 4 * 1)",
        "2 * 3 * 5 + 2 * 4 * 5 - 2 * (3 + 4) * 1",
        "2 * 3 * 5 - 2 * 3 * 1 + 2 * 4 * (5 - 1)",
    ],
    ("2 * (3 + 4) * (5 - 1)", 3): [
        "(5 - 1) * 2 * (3 + 4)",
        "2 * (3 + 4) * 5 - 2 * (3 + 4) * 1",
        "(2 * 3 + 2 * 4) * (5 - 1)",
        "2 * 3 * (5 - 1) + 2 * 4 * (5 - 1)",
        "2 * (3 + 4) * 5 - (2 * 3 + 2 * 4) * 1",
        "(2 * 3 + 2 * 4) * 5 - 2 * (3 + 4) * 1",
        "(2 * 3 + 2 * 4) * 5 - (2 * 3 + 2 * 4) * 1",
        "2 * 3 * 5 + 2 * 4 * 5 - (2 * 3 + 2 * 4) * 1",
        "2 * 3 * 5 - 2 * 3 * 1 + 2 * 4 * (5 - 1)",
        "2 * 3 * 5 + 2 * 4 * 5 - 2 * (3 + 4) * 1",
        "2 * 3 * (5 - 1) + 2 * 4 * 5 - 2 * 4 * 1",
        "2 * (3 + 4) * 5 - (2 * 3 * 1 + 2 * 4 * 1)",
        "(2 * 3 + 2 * 4) * 5 - (2 * 3 * 1 + 2 * 4 * 1)",
    ],
    ("(7 - 2) * (3 + 4) + 8 / 2 * 5", 0): [
        "(7 - 2) * 3 + (7 - 2) * 4 + 8 / 2 * 5",
        "7 * (3 + 4) - 2 * (3 + 4) + 8 / 2 * 5",
        "8 / 2 * 5 + (7 - 2) * (3 + 4)",
        "7 * (3 + 4) - (2 * 3 + 2 * 4) + 8 / 2 * 5",
        "7 * 3 + 7 * 4 - 2 * (3 + 4) + 8 / 2 * 5",
        "7 * 3 - 2 * 3 + (7 - 2) * 4 + 8 / 2 * 5",
        "(7 - 2) * 3 + 7 * 4 - 2 * 4 + 8 / 2 * 5",
        "7 * 3 - 2 * 3 + 7 * 4 - 2 * 4 + 8 / 2 * 5",
        "7 * 3 + 7 * 4 - (2 * 3 + 2 * 4) + 8 / 2 * 5",
    ],
    ("(7 - 2) * (3 + 4) + 8 / 2 * 5", 3): [
        "8 / 2 * 5 + (7 - 2) * (3 + 4)",
        "7 * (3 + 4) - 2 * (3 + 4) + 8 / 2 * 5",
        "(7 - 2) * 3 + (7 - 2) * 4 + 8 / 2 * 5",
        "(7 - 2) * 3 + 7 * 4 - 2 * 4 + 8 / 2 * 5",
        "7 * 3 - 2 * 3 + (7 - 2) * 4 + 8 / 2 * 5",
        "7 * (3 + 4) - (2 * 3 + 2 * 4) + 8 / 2 * 5",
        "7 * 3 + 7 * 4 - 2 * (3 + 4) + 8 / 2 * 5",
        "7 * 3 + 7 * 4 - (2 * 3 + 2 * 4) + 8 / 2 * 5",
        "7 * 3 - 2 * 3 + 7 * 4 - 2 * 4 + 8 / 2 * 5",
    ],
    ("3 * (2 + 5) + (6 + 1) * (9 - 5) / 2 + 4", 0): [
        "4 + 3 * (2 + 5) + (6 + 1) * (9 - 5) / 2",
        "3 * (2 + 5) + ((6 + 1) * 9 - (6 + 1) * 5) / 2 + 4",
        "3 * (2 + 5) + (6 * (9 - 5) + 1 * (9 - 5)) / 2 + 4",
        "3 * 2 + 3 * 5 + (6 + 1) * (9 - 5) / 2 + 4",
        "3 * (2 + 5) + ((6 + 1) * 9 - (6 * 5 + 1 * 5)) / 2 + 4",
        "3 * 2 + 3 * 5 + (6 * (9 - 5) + 1 * (9 - 5)) / 2 + 4",
        "3 * (2 + 5) + (6 * 9 - 6 * 5 + 1 * (9 - 5)) / 2 + 4",
        "3 * (2 + 5) + (6 * (9 - 5) + 1 * 9 - 1 * 5) / 2 + 4",
        "3 * 2 + 3 * 5 + ((6 + 1) * 9 - (6 + 1) * 5) / 2 + 4",
        "3 * (2 + 5) + (6 * 9 + 1 * 9 - (6 + 1) * 5) / 2 + 4",
        "3 * 2 + 3 * 5 + (6 * (9 - 5) + 1 * 9 - 1 * 5) / 2 + 4",
        "3 * (2 + 5) + (6 * 9 + 1 * 9 - (6 * 5 + 1 * 5)) / 2 + 4",
        "3 * 2 + 3 * 5 + (6 * 9 + 1 * 9 - (6 + 1) * 5) / 2 + 4",
        "3 * (2 + 5) + (6 * 9 - 6 * 5 + 1 * 9 - 1 * 5) / 2 + 4",
        "3 * 2 + 3 * 5 + ((6 + 1) * 9 - (6 * 5 + 1 * 5)) / 2 + 4",
        "3 * 2 + 3 * 5 + (6 * 9 - 6 * 5 + 1 * (9 - 5)) / 2 + 4",
    ],
    ("3 * (2 + 5) + (6 + 1) * (9 - 5) / 2 + 4", 3): [
        "3 * 2 + 3 * 5 + (6 + 1) * (9 - 5) / 2 + 4",
        "3 * (2 + 5) + ((6 + 1) * 9 - (6 + 1) * 5) / 2 + 4",
        "4 + 3 * (2 + 5) + (6 + 1) * (9 - 5) / 2",
        "3 * (2 + 5) + (6 * (9 - 5) + 1 * (9 - 5)) / 2 + 4",
        "3 * (2 + 5) + (6 * 9 - 6 * 5 + 1 * (9 - 5)) / 2 + 4",
        "3 * (2 + 5) + ((6 + 1) * 9 - (6 * 5 + 1 * 5)) / 2 + 4",
        "3 * 2 + 3 * 5 + (6 * (9 - 5) + 1 * (9 - 5)) / 2 + 4",
        "3 * (2 + 5) + (6 * (9 - 5) + 1 * 9 - 1 * 5) / 2 + 4",
        "3 * 2 + 3 * 5 + ((6 + 1) * 9 - (6 + 1) * 5) / 2 + 4",
        "3 * (2 + 5) + (6 * 9 + 1 * 9 - (6 + 1) * 5) / 2 + 4",
        "3 * 2 + 3 * 5 + ((6 + 1) * 9 - (6 * 5 + 1 * 5)) / 2 + 4",
        "3 * 2 + 3 * 5 + (6 * (9 - 5) + 1 * 9 - 1 * 5) / 2 + 4",
        "3 * (2 + 5) + (6 * 9 - 6 * 5 + 1 * 9 - 1 * 5) / 2 + 4",
        "3 * 2 + 3 * 5 + (6 * 9 - 6 * 5 + 1 * (9 - 5)) / 2 + 4",
        "3 * (2 + 5) + (6 * 9 + 1 * 9 - (6 * 5 + 1 * 5)) / 2 + 4",
        "3 * 2 + 3 * 5 + (6 * 9 + 1 * 9 - (6 + 1) * 5) / 2 + 4",
    ],
    ("2 * (3 + 4) * (5 - 1) + 6 * (7 + 2) + 12 / (9 - 5)", 0): [
        "12 / (9 - 5) + 2 * (3 + 4) * (5 - 1) + 6 * (7 + 2)",
        "2 * (3 + 4) * (5 - 1) + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * (5 - 1) + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * (3 + 4) * 5 - 2 * (3 + 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * 3 * (5 - 1) + 2 * 4 * (5 - 1) + 6 * (7 + 2) + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * 5 - 2 * (3 + 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * (5 - 1) + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
        "2 * (3 + 4) * 5 - (2 * 3 + 2 * 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * 5 - (2 * 3 + 2 * 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * (3 + 4) * 5 - 2 * (3 + 4) * 1 + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
        "2 * 3 * 5 + 2 * 4 * 5 - (2 * 3 + 2 * 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * 5 - (2 * 3 * 1 + 2 * 4 * 1) + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * 3 * (5 - 1) + 2 * 4 * 5 - 2 * 4 * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * (3 + 4) * 5 - (2 * 3 * 1 + 2 * 4 * 1) + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * 3 * (5 - 1) + 2 * 4 * (5 - 1) + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
        "2 * 3 * 5 - 2 * 3 * 1 + 2 * 4 * (5 - 1) + 6 * (7 + 2) + 12 / (9 - 5)",
    ],
    ("2 * (3 + 4) * (5 - 1) + 6 * (7 + 2) + 12 / (9 - 5)", 3): [
        "2 * (3 + 4) * 5 - 2 * (3 + 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * (3 + 4) * (5 - 1) + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
        "12 / (9 - 5) + 2 * (3 + 4) * (5 - 1) + 6 * (7 + 2)",
        "(2 * 3 + 2 * 4) * (5 - 1) + 6 * (7 + 2) + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * (5 - 1) + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
        "2 * 3 * (5 - 1) + 2 * 4 * (5 - 1) + 6 * (7 + 2) + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * 5 - 2 * (3 + 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * (3 + 4) * 5 - (2 * 3 + 2 * 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * 5 - (2 * 3 + 2 * 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * (3 + 4) * 5 - 2 * (3 + 4) * 1 + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
        "2 * (3 + 4) * 5 - (2 * 3 * 1 + 2 * 4 * 1) + 6 * (7 + 2) + 12 / (9 - 5)",
        "2 * (3 + 4) * 5 - (2 * 3 + 2 * 4) * 1 + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
        "2 * 3 * 5 + 2 * 4 * 5 - (2 * 3 + 2 * 4) * 1 + 6 * (7 + 2) + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * 5 - 2 * (3 + 4) * 1 + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
        "2 * 3 * 5 - 2 * 3 * 1 + 2 * 4 * (5 - 1) + 6 * (7 + 2) + 12 / (9 - 5)",
        "(2 * 3 + 2 * 4) * 5 - (2 * 3 + 2 * 4) * 1 + 6 * 7 + 6 * 2 + 12 / (9 - 5)",
    ],
}


class TestEnumerate:
    def test_leaf_problem_contains_factored_class(self):
        e = parse_expr("5*11 - 2*11")
        out = enumerate_permutations(e, max_rewrites=1, limit=16, seed=0)
        classes = {canonical_form(o) for o in out}
        assert canonical_form(parse_expr("(5-2)*11")) in classes

    def test_literal_has_no_permutations(self):
        assert enumerate_permutations(parse_expr("7"), 3, 8, 0) == []

    def test_outputs_preserve_value(self, rng):
        for _ in range(200):
            e = random_expr(rng)
            for out in enumerate_permutations(e, max_rewrites=2, limit=6, seed=7):
                assert eval_expr(out) == eval_expr(e)

    def test_outputs_distinct_by_canonical_form(self, rng):
        for _ in range(100):
            e = random_expr(rng)
            out = enumerate_permutations(e, max_rewrites=2, limit=8, seed=3)
            canons = [canonical_form(o) for o in out]
            assert len(canons) == len(set(canons))

    def test_own_class_only_with_different_surface(self):
        e = parse_expr("3 * 4")
        out = enumerate_permutations(e, max_rewrites=2, limit=8, seed=0)
        for o in out:
            assert o != e
        # the commuted surface form is a legitimate rearrangement
        assert parse_expr("4 * 3") in out

    def test_deterministic_given_seed(self, rng):
        for _ in range(50):
            e = random_expr(rng)
            first = enumerate_permutations(e, 2, 8, seed=11)
            second = enumerate_permutations(e, 2, 8, seed=11)
            assert [to_text(x) for x in first] == [to_text(x) for x in second]

    def test_seed_changes_order_not_soundness(self):
        e = parse_expr("2 * 3 + 4 * 3 + 5")
        a = enumerate_permutations(e, 2, 12, seed=1)
        b = enumerate_permutations(e, 2, 12, seed=2)
        assert {eval_expr(x) for x in a + b} == {eval_expr(e)}

    def test_respects_limit(self):
        e = parse_expr("1 + 2 + 3 + 4")
        assert len(enumerate_permutations(e, 3, 5, seed=0)) <= 5

    @pytest.mark.parametrize("text, seed", list(PINNED_SEARCH), ids=[
        f"ops{sum(map(text.count, '+-*/'))}-seed{seed}" for text, seed in PINNED_SEARCH
    ])
    def test_search_is_pinned(self, text, seed):
        out = enumerate_permutations(parse_expr(text), 3, 16, seed)
        assert [to_text(x) for x in out] == PINNED_SEARCH[text, seed]

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            enumerate_permutations(Lit(1), 0, 5, 0)
        with pytest.raises(ValueError):
            enumerate_permutations(Lit(1), 1, 0, 0)


class TestDepth:
    def test_depth_of_literal(self):
        assert depth(Lit(1)) == 1

    def test_depth_of_leaf_tree(self):
        assert depth(parse_expr("5*11 - 2*11")) == 3
