import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirquent.cirquents import (
    Cirquent,
    CirquentError,
    CirquentMove,
    Position,
    club,
    diagram,
    first_offender,
    format_cirquent,
    format_move,
    legal,
    parse_cirquent,
    parse_move,
    project_member,
    start,
    validate_cirquent,
    winner,
)
from cirquent.formulas import FormulaError, parse_formula
from cirquent.games import BOT, TOP, CapExceeded, Labmove, parse_game, parse_run

BEACON = parse_game("node winner=T {}")
PITFALL = parse_game("node winner=B {}")
RELAY = parse_game('node winner=T { B"q" -> node winner=B { T"a" -> node winner=T {} } }')


def cq(oformulas, under, over) -> Cirquent:
    c = Cirquent(
        tuple(parse_formula(s) for s in oformulas),
        tuple(frozenset(g) for g in under),
        tuple(frozenset(g) for g in over),
    )
    validate_cirquent(c)
    return c


AXIOM_F = cq(["~F", "F"], [{1, 2}], [{1, 2}])


def test_club():
    c = club(parse_formula("!F | G"))
    assert c == cq(["!F | G"], [{1}], [{1}])


def test_text_round_trip():
    text = format_cirquent(AXIOM_F)
    assert parse_cirquent(text) == AXIOM_F
    c = cq(["~E", "E", "F"], [{1, 2}, {2, 3}], [{1, 2, 3}])
    assert parse_cirquent(format_cirquent(c)) == c


def test_text_comments_stop_at_quoted_strings():
    text = 'cirquent {  # the axiom\n oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] }  # end'
    assert parse_cirquent(text) == AXIOM_F
    # inside a quoted formula `#` is formula text, and formulas have no comments
    with pytest.raises(FormulaError):
        parse_cirquent('cirquent { oformulas: ["F # x"]; under: [[1]]; over: [[1]] }')
    for bad in ('cirquent { ~: 1 }', 'cirquent { oformulas: ; }', 'cirquent { over: [[1]] } @'):
        with pytest.raises(CirquentError):
            parse_cirquent(bad)


def test_text_rejects_repeated_and_unknown_fields():
    # the last of a repeated key used to win silently: this parsed as `F`
    with pytest.raises(CirquentError, match="given twice"):
        parse_cirquent('cirquent { oformulas: ["G"]; oformulas: ["F"]; under: [[1]]; over: [[1]] }')
    with pytest.raises(CirquentError, match="unknown field 'colour'"):
        parse_cirquent('cirquent { oformulas: ["F"]; under: [[1]]; over: [[1]]; colour: 3 }')


FORMULA_POOL = tuple(parse_formula(s) for s in ("F", "~F", "!F | G", "?(E & ~G)", "E -> F"))


@st.composite
def valid_cirquents(draw):
    """Cirquents of 1-5 oformulas from FORMULA_POOL, with 1-4 random groups
    on each side and one more wherever an oformula would be left out."""
    k = draw(st.integers(1, 5))
    ofs = tuple(draw(st.lists(st.sampled_from(FORMULA_POOL), min_size=k, max_size=k)))
    group = st.frozensets(st.integers(1, k), min_size=1)

    def groups():
        gs = draw(st.lists(group, min_size=1, max_size=4))
        missing = frozenset(range(1, k + 1)).difference(*gs)
        return tuple(gs + [missing] if missing else gs)

    return Cirquent(ofs, groups(), groups())


@given(valid_cirquents())
@settings(max_examples=300)
def test_text_round_trip_property(c):
    validate_cirquent(c)
    assert parse_cirquent(format_cirquent(c)) == c


# The fields of a cirquent come in one order, separated by `;` (one more may
# close the record), and list items are separated by `,`.
@pytest.mark.parametrize("text", [
    # fields in any order, and no `,` or `;` at all: this parsed before the
    # reader followed the grammar
    'cirquent { over: [[1 2]] under: [[1, 2]] oformulas: ["~F" "F"] }',
    'cirquent { under: [[1, 2]]; oformulas: ["~F", "F"]; over: [[1, 2]] }',
    'cirquent { oformulas: ["~F", "F"]; over: [[1, 2]]; under: [[1, 2]] }',
    'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; under: [[1, 2]]; over: [[1, 2]] }',
    'cirquent { oformulas: ["~F", "F"] under: [[1, 2]]; over: [[1, 2]] }',
    'cirquent { oformulas: ["~F" "F"]; under: [[1, 2]]; over: [[1, 2]] }',
    'cirquent { oformulas: ["~F", "F"]; under: [[1 2]]; over: [[1, 2]] }',
    'cirquent { oformulas: ["~F", "F"]; under: [[1], [2]]; over: [[1] [2]] }',
    'cirquent { oformulas: ["~F", "F",]; under: [[1, 2]]; over: [[1, 2]] }',
    'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]] 3 }',
    'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]];; }',
    'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]] }',
    'cirquent { oformulas: ["~F", "F"]; under: [[1, 2]]; over: [[1, 2]]',
])
def test_text_follows_the_grammar_order(text):
    with pytest.raises(CirquentError):
        parse_cirquent(text)


def test_text_reads_integer_tokens_only():
    for group in ('["1", 2]', "[1, x]", "[1.5]", "[" + "1" * 5000 + "]"):
        with pytest.raises(CirquentError):
            parse_cirquent(f'cirquent {{ oformulas: ["F"]; under: [[1]]; over: [{group}] }}')


def test_validation_rejects_malformed_groupings():
    with pytest.raises(CirquentError):
        validate_cirquent(Cirquent((parse_formula("F"),), (frozenset(),), (frozenset({1}),)))
    with pytest.raises(CirquentError):
        validate_cirquent(Cirquent((parse_formula("F"),), (frozenset({2}),), (frozenset({1}),)))
    # every oformula needs an arc on both sides
    with pytest.raises(CirquentError):
        validate_cirquent(
            Cirquent(
                (parse_formula("F"), parse_formula("G")),
                (frozenset({1}),),
                (frozenset({1, 2}),),
            )
        )


def _validate_oracle(c: Cirquent) -> None:
    """`validate_cirquent` as it was before it used set operations: one
    membership test per group and per oformula."""
    k = len(c.oformulas)
    if k < 1:
        raise CirquentError("a cirquent needs at least one oformula")
    if not c.undergroups or not c.overgroups:
        raise CirquentError("a cirquent needs at least one group of each kind")
    for kind, groups in (("undergroup", c.undergroups), ("overgroup", c.overgroups)):
        for g in groups:
            if not g:
                raise CirquentError(f"empty {kind}")
            if not all(1 <= i <= k for i in g):
                raise CirquentError(f"{kind} {sorted(g)} references a bad index")
    for i in range(1, k + 1):
        if not any(i in g for g in c.undergroups):
            raise CirquentError(f"oformula {i} is in no undergroup")
        if not any(i in g for g in c.overgroups):
            raise CirquentError(f"oformula {i} is in no overgroup")


def _outcome(validate, c: Cirquent):
    try:
        validate(c)
    except CirquentError as e:
        return str(e)
    return None


@st.composite
def groupings(draw):
    """Cirquents of up to four oformulas whose groups may be empty, hold
    zero, negative or too large indices, or leave an oformula uncovered."""
    k = draw(st.integers(0, 4))
    wild = st.frozensets(st.integers(-1, k + 1), max_size=k + 2)
    # valid indices only, so that coverage faults and valid cirquents show
    tame = st.frozensets(st.integers(1, max(k, 1)), min_size=1, max_size=max(k, 1))

    def groups():
        return draw(st.lists(wild if draw(st.booleans()) else tame, max_size=4).map(tuple))

    return Cirquent((parse_formula("F"),) * k, groups(), groups())


@given(groupings())
@settings(max_examples=1000)
def test_validation_matches_the_membership_oracle(c):
    assert _outcome(validate_cirquent, c) == _outcome(_validate_oracle, c)


def test_move_shape():
    mv = parse_move(2, "3;00,1.q")
    assert mv == CirquentMove(3, ("00", "1"), "q")
    assert format_move(mv) == "3;00,1.q"
    assert parse_move(2, "0;,.q") is None  # indices start at 1
    assert parse_move(2, "3;00.q") is None  # arity mismatch
    assert parse_move(2, "3;00,x.q") is None
    assert parse_move(2, "junk") is None
    # only ASCII digits are digits: "١" and "٢" are Arabic-Indic one and two
    assert parse_move(1, "\u0661;.q") is None
    assert parse_move(2, "\u0662;,.q") is None


WIDE = cq(
    ["F", "F", "F", "F", "F"],
    [{1, 2, 3, 4, 5}],
    [{1, 2, 3, 5}, {3, 4, 5}],
)


def test_member_projection_frozen():
    r = parse_run("T:3;00,1.a,B:3;001,11.b,B:5;00,1.d,T:3;0,111.g")
    assert project_member(WIDE, r, 3, ("000", "111")) == parse_run("T:a,T:g")
    assert project_member(WIDE, r, 5, ("000", "111")) == parse_run("B:d")
    assert project_member(WIDE, r, 3, ("001", "111")) == parse_run("T:a,B:b,T:g")


def test_winner_needs_every_undergroup_covered():
    interp = {"F": BEACON}
    assert winner(AXIOM_F, interp, ()) is TOP
    # same oformulas, but each in its own undergroup: ~F side has no winner
    split = cq(["~F", "F"], [{1}, {2}], [{1, 2}])
    assert winner(split, interp, ()) is BOT
    assert winner(club(parse_formula("F")), {"F": PITFALL}, ()) is BOT


def test_legality_enforces_shape_and_membership():
    interp = {"F": RELAY}
    c = cq(["~F", "F"], [{1, 2}], [{1}, {2}])
    assert legal(c, interp, parse_run("B:2;,.q"))
    # group 1 does not contain oformula 2, so its slot must stay empty
    r = parse_run("B:2;0,.q")
    assert not legal(c, interp, r)
    assert first_offender(c, interp, r) is BOT
    assert first_offender(c, interp, parse_run("T:9;,.q")) is TOP
    # the projected run must be legal in the member game: no answer before q
    assert not legal(c, interp, parse_run("T:2;,.a"))
    assert legal(c, interp, parse_run("B:2;,.q,T:2;,.a"))


def test_illegal_run_goes_to_the_offenders_opponent():
    interp = {"F": RELAY}
    c = cq(["~F", "F"], [{1, 2}], [{1}, {2}])
    assert winner(c, interp, parse_run("T:9;,.q")) is BOT
    assert winner(c, interp, parse_run("B:junk,T:9;,.q")) is TOP


def test_replication_through_slots():
    interp = {"F": RELAY}
    c = cq(["F"], [{1}], [{1}])
    # ask in every copy, answer only in copies starting with 0
    r = parse_run("B:1;.q,T:1;0.a")
    assert legal(c, interp, r)
    assert winner(c, interp, r) is BOT
    assert winner(c, interp, parse_run("B:1;.q,T:1;.a")) is TOP


def test_class_vector_cap(monkeypatch):
    monkeypatch.setattr(Position, "cap", 8)
    interp = {"F": RELAY}
    c = cq(["F", "F"], [{1, 2}], [{1}, {2}])
    moves = [f"B:1;{addr},.q" for addr in ("00", "010", "0110")]
    moves += [f"B:2;,{addr}.q" for addr in ("10", "111", "1101")]
    r = parse_run(",".join(moves))
    with pytest.raises(CapExceeded):
        winner(c, interp, r)


# Member 1, in overgroup 1, loses every copy. Member 2, in overgroup 2 only,
# loses the copies of one of its two classes: those through 0, or the rest.
@pytest.mark.parametrize("run", ["B:1;,.q,B:2;,0.q", "B:1;,.q,B:2;,.q,T:2;,0.a"])
def test_an_undergroup_is_scored_over_every_members_overgroups(run):
    c = cq(["F", "F"], [{1, 2}], [{1}, {2}])
    assert winner(c, {"F": RELAY}, parse_run(run)) is BOT


def test_the_cap_counts_one_undergroups_overgroups(monkeypatch):
    # 4 classes in each overgroup: 16 vectors in all, but each undergroup
    # sees only the 4 of its own overgroup, each member its 4 copies
    monkeypatch.setattr(Position, "cap", 8)
    c = cq(["F", "F"], [{1}, {2}], [{1}, {2}])
    moves = [f"B:1;{addr},.q" for addr in ("00", "010", "0110")]
    moves += [f"B:2;,{addr}.q" for addr in ("10", "111", "1101")]
    assert winner(c, {"F": RELAY}, parse_run(",".join(moves))) is BOT


def test_a_move_at_used_addresses_keeps_the_table():
    c = cq(["F", "F", "F"], [{1, 2, 3}], [{1, 2}, {3}])
    pos = start(c, {"F": RELAY}).advance(Labmove(BOT, "1;0,.q"))
    nxt = pos.advance(Labmove(TOP, "1;0,.a"))
    assert nxt.used is pos.used and nxt.classes is pos.classes
    assert nxt.members[0] is not pos.members[0]
    assert nxt.members[1] is pos.members[1] and nxt.members[2] is pos.members[2]


# The split of overgroup 1 gives the member of both overgroups 4 vectors,
# over a cap of 3, and the mover, in overgroup 1 only, 2.  B:q is legal at
# the root of RELAY, T:a is not.
@pytest.mark.parametrize("over, first, then", [
    ([{1, 2}, {2}], "2;,0.q", "1;0,."),  # the over-cap member after the mover
    ([{1, 2}, {1}], "1;,0.q", "2;0,."),  # and before it
])
@pytest.mark.parametrize("label, inner", [(BOT, "q"), (TOP, "a")])
def test_the_split_pass_checks_the_cap_before_the_move(monkeypatch, over, first, then,
                                                       label, inner):
    monkeypatch.setattr(Position, "cap", 3)
    pos = start(cq(["F", "F"], [{1, 2}], over), {"F": RELAY})
    pos = pos.advance(Labmove(BOT, first))
    with pytest.raises(CapExceeded):
        pos.advance(Labmove(label, then + inner))


def test_diagram_smoke():
    art = diagram(cq(["~E", "E", "F"], [{1, 2}, {2, 3}], [{1, 2, 3}]))
    for needle in ("~E", "E", "F", "*", "/", "\\"):
        assert needle in art
    assert len(art.splitlines()) == 5
