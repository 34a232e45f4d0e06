import random
import string

import pytest

from askbd.backends import (
    CAP_GENERATE,
    BackendProfile,
    ExchangeStore,
    GenerationParams,
    generate_fingerprint,
)
from askbd.detect import (
    TEMPLATE_IDS,
    DetectionOutcome,
    cqe_prompt,
    detect,
    grading_prompt,
    load_template,
    outcome_of,
    parse_detector_response,
    sqr_prompt,
    ssi_prompt,
)
from askbd.records import CORRECT_LABEL, ErrorLabel, render_solution_text

MODEL = "demo-model"
PROFILE = BackendProfile(
    name="demo",
    endpoint="scripted:unused",
    model=MODEL,
    capabilities=frozenset({CAP_GENERATE}),
)


def script_for(pairs):
    """Build a scripted backend from {prompt: response} pairs. A re-ask is
    its own request, scripted with the same response as the first ask."""
    entries = {}
    for prompt, response in pairs.items():
        for attempt in (0, 1):
            key = generate_fingerprint(
                MODEL, [{"role": "user", "content": prompt}], GenerationParams(attempt=attempt)
            )
            entries[key] = {"response": response}
    return ExchangeStore(entries, MODEL)


class SequenceBackend:
    """Answers each prompt with the next of its scripted responses."""

    def __init__(self, pairs):
        self.replies = {prompt: list(responses) for prompt, responses in pairs.items()}

    def generate(self, messages, params):
        return self.replies[messages[0]["content"]].pop(0)


def stages(exchanges):
    return [exchange.stage for exchange in exchanges]


def outcome(record, exchanges):
    """What `outcome_of` makes of a detection's last exchange, which is the
    outcome `detect` attached to that exchange."""
    last = exchanges[-1]
    judged = outcome_of(last.stage, last.response, len(record.steps))
    assert last.outcome == judged
    return judged


# The published detector instructions, frozen for the golden comparison.
NAIVE_FIGURE = (
    "Given the <question>, please judge whether each step in <solution> is correct. "
    "During the judging process,you should know that the <question> does not always "
    "have only one standard solution, and any reasonable <solution> should be "
    "accepted. You should pay attention to both the expressions and the statements "
    "in each step, and take care about the logic consistency between different "
    "steps. Additionally, consider arithmetic expression equivalency and avoid "
    "rejecting solutions solely because they use equivalent expressions.\n"
    "\n"
    "In each step, if no errors are found, respond with Step X: <correct>. If you "
    "find that the operands in the listed expressions are correct but an error "
    "occurs in the calculated result, respond with Step X: <calculation error>. If "
    "you find statements or operands in the listed expression are incorrectly "
    "referencing the question conditions or the results from prior steps, respond "
    "with Step X: <reference error>. If you find operands or expressions in the "
    "step that is lack of references or support from the question conditions or "
    "prior steps, respond with Step X: <missing step>. If you find statements or "
    "operands in the listed expression are fabricated or inconsistent with the "
    "question's conditions, respond with: Step X: <hallucination>. If an error is "
    "a follow-on issue due to mistakes in previous steps rather than an independent "
    "error, respond with: Step X: <secondary error>.\n"
    "\n"
    "<question> [Question Text] <solution> [Solution Text]\n"
    "\n"
    "Now, please start to respond."
)

COT_EXTRA = (
    "Before the <response>, you should provide your step-by-step <thinking> about "
    "your judging process."
)


class TestTemplates:
    def test_naive_matches_figure(self):
        rendered = load_template("naive").render(
            question="[Question Text]", solution="[Solution Text]"
        )
        assert rendered == NAIVE_FIGURE

    def test_cot_adds_thinking_instruction(self):
        rendered = load_template("cot").render(
            question="[Question Text]", solution="[Solution Text]"
        )
        assert COT_EXTRA in rendered
        assert rendered.endswith("Now, please start to think first and then respond.")
        # shares the whole tag-definition paragraph with the naive prompt
        assert NAIVE_FIGURE.split("\n\n")[1] in rendered

    def test_reference_templates_add_reference_slot(self):
        for template_id in ("reference_naive", "reference_cot"):
            rendered = load_template(template_id).render(
                question="Q", solution="S", reference="R"
            )
            assert "<reference> R" in rendered

    def test_unbound_placeholder_fails(self):
        with pytest.raises(ValueError):
            load_template("naive").render(question="only")

    def test_unknown_template(self):
        with pytest.raises(ValueError):
            load_template("explain")

    def test_each_template_is_read_once(self):
        for template_id in TEMPLATE_IDS:
            assert load_template(template_id) is load_template(template_id)


class TestParseDetectorResponse:
    def test_first_primary_error_wins(self):
        text = "Step 1: <calculation error>\nStep 2: <correct>\nStep 3: <secondary error>"
        outcome = parse_detector_response(text, 3)
        assert outcome.valid
        assert outcome.predicted == ErrorLabel(1, "calc")

    def test_all_correct(self):
        text = "Step 1: <correct>\nStep 2: <correct>"
        outcome = parse_detector_response(text, 2)
        assert outcome.valid
        assert outcome.predicted == CORRECT_LABEL
        # a secondary error alone is no primary error
        outcome = parse_detector_response("Step 1: <secondary error>", 1)
        assert outcome.valid
        assert outcome.predicted == CORRECT_LABEL

    def test_missing_line_invalid(self):
        outcome = parse_detector_response("Step 1: <correct>\nStep 3: <correct>", 3)
        assert not outcome.valid

    def test_duplicate_line_invalid(self):
        outcome = parse_detector_response("Step 1: <correct>\nStep 1: <correct>", 1)
        assert not outcome.valid

    def test_step_count_mismatch_invalid(self):
        outcome = parse_detector_response(
            "Step 1: <correct>\nStep 2: <correct>\nStep 3: <correct>", 2
        )
        assert not outcome.valid

    def test_bare_tags_and_case_insensitivity(self):
        text = "STEP 1: Reference Error\nstep 2: <CORRECT>"
        outcome = parse_detector_response(text, 2)
        assert outcome.valid
        assert outcome.predicted == ErrorLabel(1, "ref")

    def test_thinking_text_captured(self):
        text = "I will check each step.\nThe math looks fine.\nStep 1: <correct>"
        outcome = parse_detector_response(text, 1)
        # the transcript keeps the thinking; the label comes from the tags
        assert outcome.valid
        assert outcome.predicted == CORRECT_LABEL

    def test_trailing_commentary_allowed_with_brackets(self):
        text = "Step 1: <missing step> because 55 appears from nowhere"
        outcome = parse_detector_response(text, 1)
        assert outcome.predicted == ErrorLabel(1, "missing")

    def test_totality_on_random_bytes(self):
        rng = random.Random(123)
        alphabet = string.printable + "\x00\xff"
        for _ in range(2000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
            text = blob.decode("utf-8", errors="replace")
            outcome = parse_detector_response(text, rng.randrange(1, 5))
            assert isinstance(outcome, DetectionOutcome)
            assert outcome.valid in (True, False)

    def test_first_primary_rule_metamorphic(self):
        base = ["<correct>", "<calculation error>", "<correct>", "<correct>"]
        text = "\n".join(f"Step {i}: {t}" for i, t in enumerate(base, 1))
        predicted = parse_detector_response(text, 4).predicted
        # flipping tags after the first primary error never changes the label
        for replacement in ("<reference error>", "<hallucination>", "<missing step>"):
            for position in (2, 3):
                edited = list(base)
                edited[position] = replacement
                text2 = "\n".join(f"Step {i}: {t}" for i, t in enumerate(edited, 1))
                assert parse_detector_response(text2, 4).predicted == predicted

    def test_secondary_transparency_metamorphic(self):
        base = ["<correct>", "<reference error>", "<calculation error>"]
        text = "\n".join(f"Step {i}: {t}" for i, t in enumerate(base, 1))
        predicted = parse_detector_response(text, 3).predicted
        edited = list(base)
        edited[2] = "<secondary error>"
        text2 = "\n".join(f"Step {i}: {t}" for i, t in enumerate(edited, 1))
        assert parse_detector_response(text2, 3).predicted == predicted


LEAF_INQUIRY = "How far down the sidewalk has the leaf traveled after 11 gusts?"
LEAF_CQE_RESPONSE = (
    "<conditions> Each gust blows the leaf 5 feet forward; each swirl blows it "
    "back 2 feet; there are 11 gusts.\n"
    "<inquiry> How far down the sidewalk has the leaf traveled after 11 gusts?"
)


def leaf_scripts(leaf_record):
    """Scripted exchanges for a full four-stage run on the leaf problem."""
    cqe_prompt = load_template("cqe").render(question=leaf_record.question)
    ssi_prompt = load_template("ssi").render(solution=render_solution_text(leaf_record))
    ssi_response = (
        "Question 1: How far forward do 11 gusts blow the leaf?\n"
        "Question 2: How far back do 11 swirls blow the leaf?\n"
        "Question 3: How far has the leaf traveled after 11 gusts?"
    )
    questions = [
        "How far forward do 11 gusts blow the leaf?",
        "How far back do 11 swirls blow the leaf?",
        "How far has the leaf traveled after 11 gusts?",
        LEAF_INQUIRY,
    ]
    conditions = (
        "Each gust blows the leaf 5 feet forward; each swirl blows it back 2 "
        "feet; there are 11 gusts."
    )
    numbered = "\n".join(f"Question {i}: {q}" for i, q in enumerate(questions, 1))
    sqr_prompt = load_template("sqr").render(conditions=conditions, questions=numbered)
    sqr_response = (
        "Step 1: The gusts blow the leaf forward 5 * 11 = 55 feet.\n"
        "Step 2: The swirls blow the leaf back 2 * 11 = 22 feet.\n"
        "Step 3: The leaf has traveled 55 - 22 = 33 feet.\n"
        "Step 4: The leaf has traveled 33 feet down the sidewalk."
    )
    reg_prompt = load_template("reference_naive").render(
        question=leaf_record.question,
        solution=render_solution_text(leaf_record),
        reference=sqr_response,
    )
    reg_response = "Step 1: <correct>\nStep 2: <correct>\nStep 3: <correct>"
    return {
        cqe_prompt: LEAF_CQE_RESPONSE,
        ssi_prompt: ssi_response,
        sqr_prompt: sqr_response,
        reg_prompt: reg_response,
    }


class TestStages:
    def test_cqe_parses_fixture(self, leaf_record):
        exchanges = detect(leaf_record, PROFILE, "M2", backend=script_for(leaf_scripts(leaf_record)))
        cqe, sqr = exchanges[0], exchanges[2]
        assert (cqe.stage, sqr.stage) == ("cqe", "sqr")
        assert cqe.prompt == load_template("cqe").render(question=leaf_record.question)
        # the parsed conditions and inquiry are what sqr is asked about
        assert "<conditions> Each gust blows the leaf 5 feet forward" in sqr.prompt
        assert f"Question 4: {LEAF_INQUIRY}" in sqr.prompt

    def test_cqe_missing_delimiter_fails_after_reask(self, leaf_record):
        scripts = leaf_scripts(leaf_record)
        scripts[cqe_prompt(leaf_record)] = "no sections here"
        exchanges = detect(leaf_record, PROFILE, "M2", backend=script_for(scripts))
        assert stages(exchanges) == ["cqe", "cqe", "failed"]
        assert exchanges[-1].response.startswith(
            "stage failure: cqe: UnparseableBackendOutput: no <conditions>"
        )
        assert not outcome(leaf_record, exchanges).valid

    def test_ssi_appends_inquiry(self, leaf_record):
        exchanges = detect(leaf_record, PROFILE, "M2", backend=script_for(leaf_scripts(leaf_record)))
        ssi, sqr = exchanges[1], exchanges[2]
        assert ssi.stage == "ssi"
        assert ssi.prompt == load_template("ssi").render(
            solution=render_solution_text(leaf_record)
        )
        # one question per step, then the inquiry
        assert (
            "Question 3: How far has the leaf traveled after 11 gusts?\n"
            f"Question 4: {LEAF_INQUIRY}\n"
        ) in sqr.prompt
        assert "Question 5" not in sqr.prompt

    def test_ssi_wrong_count_rejected(self, leaf_record):
        scripts = leaf_scripts(leaf_record)
        scripts[ssi_prompt(leaf_record)] = "Question 1: only one?"
        exchanges = detect(leaf_record, PROFILE, "M3", backend=script_for(scripts))
        assert "sqr" not in stages(exchanges)
        assert "expected questions 1..3, got [1]" in exchanges[-1].response
        assert not outcome(leaf_record, exchanges).valid

    def test_sqr_empty_conditions_rejected(self, leaf_record):
        scripts = leaf_scripts(leaf_record)
        scripts[cqe_prompt(leaf_record)] = f"<conditions>   \n<inquiry> {LEAF_INQUIRY}"
        exchanges = detect(leaf_record, PROFILE, "M2", backend=script_for(scripts))
        assert stages(exchanges) == ["cqe", "cqe", "failed"]
        assert "empty conditions or inquiry section" in exchanges[-1].response

    def test_sqr_single_question(self):
        prompt = sqr_prompt("There are 3 apples and 4 pears.", ["What is 3 + 4?"])
        assert prompt == load_template("sqr").render(
            conditions="There are 3 apples and 4 pears.",
            questions="Question 1: What is 3 + 4?",
        )

    def test_reg_correct_fixture(self, leaf_record):
        reference = "Step 1: The leaf travels 33 feet."
        prompt = load_template("reference_naive").render(
            question=leaf_record.question,
            solution=render_solution_text(leaf_record),
            reference=reference,
        )
        assert grading_prompt(leaf_record, "ref_conventional", reference) == prompt
        backend = script_for(
            {prompt: "Step 1: <correct>\nStep 2: <correct>\nStep 3: <correct>"}
        )
        exchanges = detect(leaf_record, PROFILE, "ref_conventional", reference, backend=backend)
        assert outcome(leaf_record, exchanges) == DetectionOutcome(CORRECT_LABEL, valid=True)
        assert stages(exchanges) == ["reg"]

    def test_reg_garbage_yields_invalid_outcome(self, leaf_record):
        reference = "Step 1: whatever."
        prompt = grading_prompt(leaf_record, "ref_matching", reference)
        backend = script_for({prompt: "I refuse to answer in the required format."})
        exchanges = detect(leaf_record, PROFILE, "ref_matching", reference, backend=backend)
        assert not outcome(leaf_record, exchanges).valid
        assert stages(exchanges) == ["reg", "reg"]  # one re-ask, then an invalid outcome

    def test_reasked_cqe_keeps_both_exchanges(self, leaf_record):
        scripts = {prompt: [response] for prompt, response in leaf_scripts(leaf_record).items()}
        scripts[cqe_prompt(leaf_record)].insert(0, "no sections here")
        exchanges = detect(leaf_record, PROFILE, "M2", backend=SequenceBackend(scripts))
        assert stages(exchanges) == ["cqe", "cqe", "ssi", "sqr", "reg"]
        assert [e.response for e in exchanges[:2]] == ["no sections here", LEAF_CQE_RESPONSE]
        assert outcome(leaf_record, exchanges).valid

    def test_unparseable_ssi_ends_in_a_failed_line(self, leaf_record):
        scripts = leaf_scripts(leaf_record)
        scripts[ssi_prompt(leaf_record)] = "no questions here"
        exchanges = detect(leaf_record, PROFILE, "M2", backend=script_for(scripts))
        assert stages(exchanges) == ["cqe", "ssi", "ssi", "failed"]
        failed = exchanges[-1]
        assert failed.prompt == ""
        assert failed.response.startswith("stage failure: ssi: UnparseableBackendOutput: ")
        assert outcome(leaf_record, exchanges).invalid_reason == failed.response

    def test_backend_failure_names_the_stage_asked(self, leaf_record):
        # the leaf scripts grade with the M2 template only, so M3's grading
        # request is unscripted
        exchanges = detect(leaf_record, PROFILE, "M3", backend=script_for(leaf_scripts(leaf_record)))
        assert stages(exchanges) == ["cqe", "ssi", "sqr", "failed"]
        assert exchanges[-1].response.startswith("stage failure: reg: UnscriptedRequest: ")


class TestDetect:
    def test_m0_uses_naive_template(self, leaf_record):
        prompt = load_template("naive").render(
            question=leaf_record.question, solution=render_solution_text(leaf_record)
        )
        backend = script_for(
            {prompt: "Step 1: <correct>\nStep 2: <correct>\nStep 3: <correct>"}
        )
        exchanges = detect(leaf_record, PROFILE, "M0", backend=backend)
        assert outcome(leaf_record, exchanges).predicted == CORRECT_LABEL
        assert len(exchanges) == 1
        assert exchanges[0].prompt == prompt

    def test_m1_captures_thinking(self, leaf_record):
        prompt = load_template("cot").render(
            question=leaf_record.question, solution=render_solution_text(leaf_record)
        )
        backend = script_for(
            {
                prompt: "Checking each step carefully first.\n"
                "Step 1: <correct>\nStep 2: <correct>\nStep 3: <correct>"
            }
        )
        exchanges = detect(leaf_record, PROFILE, "M1", backend=backend)
        assert outcome(leaf_record, exchanges).valid
        assert outcome(leaf_record, exchanges).predicted == CORRECT_LABEL

    def test_m2_runs_four_stages_in_order(self, leaf_record):
        backend = script_for(leaf_scripts(leaf_record))
        exchanges = detect(leaf_record, PROFILE, "M2", backend=backend)
        assert [e.stage for e in exchanges] == ["cqe", "ssi", "sqr", "reg"]
        assert outcome(leaf_record, exchanges).valid
        assert outcome(leaf_record, exchanges).predicted == CORRECT_LABEL

    def test_m3_runs_four_stages_with_cot_grading(self, leaf_record):
        scripts = leaf_scripts(leaf_record)
        sqr_response = scripts[load_template("sqr").render(
            conditions=(
                "Each gust blows the leaf 5 feet forward; each swirl blows it "
                "back 2 feet; there are 11 gusts."
            ),
            questions="\n".join(
                f"Question {i}: {q}" for i, q in enumerate(
                    [
                        "How far forward do 11 gusts blow the leaf?",
                        "How far back do 11 swirls blow the leaf?",
                        "How far has the leaf traveled after 11 gusts?",
                        "How far down the sidewalk has the leaf traveled after 11 gusts?",
                    ],
                    1,
                )
            ),
        )]
        reg_cot_prompt = load_template("reference_cot").render(
            question=leaf_record.question,
            solution=render_solution_text(leaf_record),
            reference=sqr_response,
        )
        scripts[reg_cot_prompt] = (
            "Each step matches the reference.\n"
            "Step 1: <correct>\nStep 2: <correct>\nStep 3: <correct>"
        )
        exchanges = detect(leaf_record, PROFILE, "M3", backend=script_for(scripts))
        assert [e.stage for e in exchanges] == ["cqe", "ssi", "sqr", "reg"]
        assert outcome(leaf_record, exchanges).valid
        assert outcome(leaf_record, exchanges).predicted == CORRECT_LABEL

    def test_ref_strategies_require_reference(self, leaf_record):
        with pytest.raises(ValueError):
            detect(leaf_record, PROFILE, "ref_matching", backend=script_for({}))

    def test_ref_matching_scripted(self, leaf_record):
        reference = render_solution_text(leaf_record)
        prompt = load_template("reference_naive").render(
            question=leaf_record.question,
            solution=render_solution_text(leaf_record),
            reference=reference,
        )
        backend = script_for(
            {prompt: "Step 1: <correct>\nStep 2: <correct>\nStep 3: <correct>"}
        )
        exchanges = detect(leaf_record, PROFILE, "ref_matching", reference=reference, backend=backend)
        assert outcome(leaf_record, exchanges).predicted == CORRECT_LABEL

    def test_unknown_strategy(self, leaf_record):
        with pytest.raises(ValueError):
            detect(leaf_record, PROFILE, "M9", backend=script_for({}))

    def test_scripted_error_fixture_detects_injected_step(self, leaf_record):
        from askbd.inject import inject

        injected = inject(leaf_record, "calc", 10999)
        prompt = load_template("naive").render(
            question=injected.question, solution=render_solution_text(injected)
        )
        backend = script_for(
            {prompt: "Step 1: <calculation error>\nStep 2: <correct>\nStep 3: <secondary error>"}
        )
        exchanges = detect(injected, PROFILE, "M0", backend=backend)
        assert outcome(injected, exchanges).predicted == injected.label
