"""Game trees, runs, and the run-level operators over them.

The frozen projection and thread-class values below were worked out by hand
from the address semantics (every move in a replicated component carries a
bitstring naming the copies it acts in) before the implementation existed.
"""

import time
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cirquent import games
from cirquent.cirquents import Cirquent
from cirquent.formulas import parse_formula
from cirquent.games import (
    BOT,
    TOP,
    CapExceeded,
    Conj,
    Corep,
    Disj,
    GameError,
    GameNode,
    Labmove,
    Neg,
    Rep,
    Tree,
    class_of,
    covers,
    first_offender,
    format_game,
    format_run,
    is_static,
    legal,
    of_formula,
    parse_game,
    parse_game_library,
    parse_run,
    split_classes,
    start,
    thread_classes,
    through_classes,
    winner,
)
from cirquent.harness import CirquentArena
from cirquent.reader import MAX_DEPTH
from referee_oracle import (
    _delays,
    _legal_runs,
    first_breach,
    is_delay_of,
    negate_run,
    project_prefix,
    project_thread,
    walk,
)


def run(*items: str):
    return parse_run(",".join(items))


RELAY = parse_game('node winner=T { B"q" -> node winner=B { T"a" -> node winner=T {} } }')
BEACON = parse_game("node winner=T {}")
PITFALL = parse_game("node winner=B {}")


# --------------------------------------------------------------- run basics


def test_run_literal_round_trip():
    r = run("T:0.q", "B:1.a", "B:x,y")
    assert r == (Labmove(TOP, "0.q"), Labmove(BOT, "1.a"), Labmove(BOT, "x,y"))
    assert parse_run(format_run(r)) == r


def test_run_literal_accepts_glyph_labels():
    assert parse_run("⊤:m,⊥:n") == (Labmove(TOP, "m"), Labmove(BOT, "n"))


def test_bad_run_literals():
    for bad in ("T", "Tmove", "X:m"):
        with pytest.raises(GameError):
            parse_run(bad)


def test_commas_inside_moves_survive_the_round_trip():
    # slot vectors put commas in move strings, so only label boundaries split
    r = (Labmove(TOP, "3;00,1.q"), Labmove(BOT, "m,"))
    assert parse_run(format_run(r)) == r


def test_negate_run_flips_labels_only():
    r = run("T:a", "B:b")
    assert negate_run(r) == run("B:a", "T:b")
    assert negate_run(negate_run(r)) == r


# ------------------------------------------------------------- projections


def test_projection_keeps_the_addressed_component():
    r = run("T:0.b", "B:1.g", "B:0.d")
    assert project_prefix(r, "0.") == run("T:b", "B:d")
    assert project_prefix(r, "1.") == run("B:g")


def test_thread_projection_follows_the_covering_copies():
    r = run("T:00.a", "B:001.b", "B:0.d")
    assert project_thread(r, "000") == run("T:a", "B:d")
    assert project_thread(r, "001") == run("T:a", "B:b", "B:d")


def test_covers():
    assert covers("000", "00")
    assert covers("000", "0000")  # prefix of 000 followed by zeros
    assert not covers("000", "001")
    assert covers("", "0")
    assert not covers("", "1")
    assert covers("1", "10")


def test_thread_classes_frozen():
    assert thread_classes([]) == [""]
    assert thread_classes(["", "0"]) == ["", "1"]
    assert thread_classes(["1"]) == ["", "10"]


@given(st.lists(st.text(alphabet="01", max_size=4), max_size=5))
def test_thread_classes_are_class_representatives(used):
    reps = thread_classes(used)
    assert reps[0] == ""
    chains = [frozenset(u for u in used if covers(x, u)) for x in reps]
    # reps induce pairwise distinct move sets, and jointly cover every chain
    assert len(set(chains)) == len(chains)
    for probe in {"", "0", "1", "00", "01", "10", "11", "000", "111", "0101"}:
        chain = frozenset(u for u in used if covers(probe, u))
        assert chain in chains


bitstrings = st.text(alphabet="01", max_size=12)


@given(st.sets(bitstrings, max_size=8), bitstrings, st.integers(0, 7), st.booleans())
@example({"", "0"}, "1", 0, False)  # the rest of the class of "" is covered
@example({"", "00", "01"}, "0", 0, False)  # the part through w is covered
@example({"0", "1"}, "", 0, False)  # no copy lies on no used address
@example({"0" * 12}, "", 0, False)
@settings(max_examples=400)
def test_split_classes_match_the_reference_classes(used, w, i, reuse):
    used = frozenset(used)
    if reuse and used:
        w = sorted(used)[i % len(used)]
    after = used | {w}
    keys = [class_of(used, stem) for stem in thread_classes(used)]
    # per class after the move, read off its representative copy: the class
    # it comes from, and whether it is through w
    stems = thread_classes(after)
    want = {class_of(after, stem): class_of(used, stem) for stem in stems}
    reached = {class_of(after, stem) for stem in stems if covers(stem, w)}
    # a used address splits nothing, so split_classes is asked of new ones only
    split = split_classes(used, keys, w) if w not in used else [(k, k) for k in keys]
    assert len(split) == len(want)
    assert dict(split) == want
    # the classes a move at w reaches, on the split table and before it
    through = through_classes(after, [key for key, _ in split], w)
    assert len(through) == len(set(through))
    assert set(through) == reached
    through = through_classes(used, keys, w)
    assert len(through) == len(set(through))
    assert set(through) == {want[key] for key in reached}


# ------------------------------------------------------------- tree games


def test_walk_and_winner():
    assert winner(Tree(RELAY), ()) is TOP
    assert winner(Tree(RELAY), run("B:q")) is BOT
    assert winner(Tree(RELAY), run("B:q", "T:a")) is TOP
    assert walk(RELAY, run("B:q", "T:a")).winner is TOP


def test_offender_and_illegal_runs():
    assert first_offender(Tree(RELAY), run("T:a")) is TOP
    assert first_offender(Tree(RELAY), run("B:q", "T:a")) is None
    # the opponent of the first offender wins, whatever follows
    assert winner(Tree(RELAY), run("T:a")) is BOT
    assert winner(Tree(RELAY), run("B:zz", "T:zz")) is TOP


def test_of_formula_names_every_atom_without_a_game():
    f = parse_formula("G | H & F")
    with pytest.raises(GameError, match="^no game assigned to atoms G, H$"):
        of_formula(f, {"F": GameNode(TOP)})
    assert of_formula(f, dict.fromkeys("FGH", GameNode(TOP))) == Disj(
        Tree(GameNode(TOP)), Conj(Tree(GameNode(TOP)), Tree(GameNode(TOP))))


def test_game_text_round_trip():
    text = format_game(RELAY)
    assert format_game(parse_game(text)) == text
    lib = parse_game_library('game a = node winner=T {}\ngame b = node winner=B {}')
    assert winner(Tree(lib["a"]), ()) is TOP
    assert winner(Tree(lib["b"]), ()) is BOT


def test_game_names_are_plain_identifiers():
    # names starting like a keyword or a player label are still names
    names = ["Top", "B2", "nodes", "game_a", "winner", "T"]
    lib = parse_game_library("".join(f"game {n} = node winner=T {{}}\n" for n in names))
    assert list(lib) == names


def test_hash_inside_a_quoted_move_is_not_a_comment():
    text = 'node winner=T {  # comment\n  B"q#1" -> node winner=B {}  # "x"\n}'
    node = parse_game(text)
    assert [(lab, m) for lab, m, _ in node.edges] == [(BOT, "q#1")]
    assert parse_game(format_game(node)) == node


def test_game_text_errors():
    for bad in (
        'node winner=X {}',
        'node winner=T { B"" -> node winner=T {} }',
        'node winner=T { B"m" -> node winner=T {} B"m" -> node winner=B {} }',
        'node winner=T {} trailing',
    ):
        with pytest.raises(GameError):
            parse_game(bad)


def test_game_trees_are_at_most_max_depth_moves_deep():
    def chain(depth: int) -> str:
        return 'node winner=T { B"q" -> ' * depth + "node winner=T {}" + " }" * depth

    node = parse_game(chain(MAX_DEPTH))
    assert format_game(node).count("->") == MAX_DEPTH
    assert legal(Tree(node), tuple(Labmove(BOT, "q") for _ in range(MAX_DEPTH)))
    with pytest.raises(GameError, match="deeper than"):
        parse_game(chain(MAX_DEPTH + 1))


# ---------------------------------------------------- composite structures


def test_choice_moves_carry_component_prefixes():
    g = Disj(Tree(RELAY), Tree(BEACON))
    assert winner(g, ()) is TOP
    assert legal(g, run("B:0.q"))
    assert not legal(g, run("B:q"))
    assert winner(g, run("B:0.q")) is TOP  # right side still won
    assert winner(Conj(Tree(RELAY), Tree(BEACON)), run("B:0.q")) is BOT


def test_replication_addresses():
    g = Rep(Tree(RELAY))
    assert legal(g, run("B:.q"))
    assert legal(g, run("B:.q", "T:.a"))
    assert not legal(g, run("B:q"))
    assert winner(g, run("B:.q")) is BOT
    assert winner(g, run("B:.q", "T:.a")) is TOP
    # splitting the play: answer only the 0-side thread
    r = run("B:.q", "T:0.a")
    assert winner(g, r) is BOT  # the 1-side thread is still unanswered
    assert winner(Corep(Tree(RELAY)), r) is TOP


def test_a_move_at_used_addresses_splits_nothing():
    pos = start(Rep(Tree(RELAY))).advance(Labmove(BOT, "0.q"))
    nxt = pos.advance(Labmove(TOP, "0.a"))
    assert nxt.used is pos.used and nxt.classes is pos.classes
    # the question in the copies through 0 is answered, and no other was asked
    assert pos.winner() is BOT and nxt.winner() is TOP


def test_copies_at_one_tree_node_share_one_position():
    """So a copy asks its tree node's frontier and winner once, whichever
    table or game it sits in."""
    assert start(Tree(RELAY)) is start(Tree(RELAY)) is not start(Neg(Tree(RELAY)))
    asked = start(Tree(RELAY)).advance(Labmove(BOT, "q"))
    split = start(Rep(Tree(RELAY))).advance(Labmove(BOT, "0.q"))
    assert split.members[0][("0",)] is asked
    assert split.members[0][(None,)] is start(Tree(RELAY))


def bangs(k: int, g=Tree(RELAY)):
    """`!` k times over g."""
    for _ in range(k):
        g = Rep(g)
    return g


def test_a_frontier_over_the_cap_raises_every_time(monkeypatch):
    assert len(start(bangs(2)).moves(BOT, 2)) == 7 * 7  # 7 addresses per level
    monkeypatch.setattr(games, "FRONTIER_CAP", 49)  # read where it is checked
    assert len(start(bangs(2)).moves(BOT, 2)) == 49
    monkeypatch.setattr(games, "FRONTIER_CAP", 48)
    pos = start(bangs(2))
    for _ in range(2):  # a CapExceeded is not kept as the answer
        with pytest.raises(CapExceeded, match="cap of 48 moves"):
            pos.moves(BOT, 2)
    assert len(pos.moves(BOT, 1)) == 3 * 3


def test_a_member_in_eight_overgroups_has_too_many_slot_tuples():
    """7**8 slot tuples are over the cap, though no one has a move."""
    c = Cirquent((parse_formula("F"),), (frozenset({1}),), (frozenset({1}),) * 8)
    arena = CirquentArena(c, {"F": BEACON})
    assert arena.frontier((), BOT, 1) == []
    with pytest.raises(CapExceeded, match=f"{7 ** 8} slot tuples of one member exceed cap"):
        arena.frontier((), BOT, 2)


# Games at most 8 operators deep: each level is a leaf or an operator over
# the level below, so a draw stops at the bottom level instead of recursing on.
leaves = st.sampled_from([Tree(RELAY), Tree(BEACON), Tree(PITFALL)])
dualizable = leaves
for _ in range(8):
    dualizable = (leaves | st.builds(Neg, dualizable)
                  | st.builds(Conj, dualizable, dualizable)
                  | st.builds(Disj, dualizable, dualizable)
                  | st.builds(Rep, dualizable) | st.builds(Corep, dualizable))

move_texts = st.sampled_from(
    ["q", "a", "zz", "0.q", "1.q", "0.a", "1.a", ".q", ".a", "0.0.q",
     "00.a", "1.0.q", "01.q", ".", "x.q", ""]
)
runs = st.lists(
    st.builds(Labmove, st.sampled_from([TOP, BOT]), move_texts), max_size=6
).map(tuple)


@given(dualizable, dualizable, runs)
@settings(max_examples=400)
def test_negation_dualities(a, b, r):
    pairs = [
        (Neg(Neg(a)), a),
        (Neg(Conj(a, b)), Disj(Neg(a), Neg(b))),
        (Neg(Disj(a, b)), Conj(Neg(a), Neg(b))),
        (Neg(Rep(a)), Corep(Neg(a))),
        (Neg(Corep(a)), Rep(Neg(a))),
    ]
    for lhs, rhs in pairs:
        assert legal(lhs, r) == legal(rhs, r)
        assert winner(lhs, r) is winner(rhs, r)


@given(dualizable, runs)
@settings(max_examples=200)
def test_negation_swaps_winners_and_offenders(g, r):
    assert winner(Neg(g), r) is winner(g, negate_run(r)).other
    off = first_offender(g, negate_run(r))
    assert first_offender(Neg(g), r) == (None if off is None else off.other)


# ------------------------------------------------------------ delay, static


def test_delay_relation():
    gamma = run("B:a", "T:b", "B:d")
    assert is_delay_of(TOP, gamma, run("B:a", "B:d", "T:b"))
    assert not is_delay_of(TOP, gamma, run("T:b", "B:a", "B:d"))
    assert is_delay_of(TOP, gamma, gamma)
    # dropping a move is not a delay
    assert not is_delay_of(TOP, gamma, run("B:a", "T:b"))


def interleavings(pi, gamma):
    """Every merge of gamma's pi moves and opponent moves, each side in its
    order, those with pi's moves at lexicographically smaller places first."""
    mine = [lm for lm in gamma if lm.label is pi]
    theirs = [lm for lm in gamma if lm.label is not pi]
    for places in combinations(range(len(gamma)), len(mine)):
        m, t = iter(mine), iter(theirs)
        yield tuple(next(m) if i in places else next(t) for i in range(len(gamma)))


@given(st.lists(st.builds(Labmove, st.sampled_from([TOP, BOT]), st.sampled_from("abc")),
                max_size=7),
       st.sampled_from([TOP, BOT]))
@settings(max_examples=300)
def test_delays_are_the_interleavings_the_delay_relation_accepts(gamma, pi):
    gamma = tuple(gamma)
    want = [u for u in interleavings(pi, gamma) if is_delay_of(pi, gamma, u)]
    assert _delays(pi, gamma) == want


trees = st.recursive(
    st.builds(GameNode, st.sampled_from([TOP, BOT])),
    lambda kids: st.builds(
        GameNode, st.sampled_from([TOP, BOT]),
        st.lists(st.tuples(st.sampled_from([TOP, BOT]), st.sampled_from("abc"), kids),
                 max_size=3, unique_by=lambda e: e[:2]).map(tuple)),
    max_leaves=8,
)


@given(trees, st.integers(0, 3))
@settings(max_examples=200)
def test_legal_runs_are_the_legal_runs_over_the_tree_moves(node, maxlen):
    labmoves = [Labmove(lab, m) for m in sorted(node.moves()) for lab in (TOP, BOT)]
    want = [r for n in range(maxlen + 1) for r in product(labmoves, repeat=n)
            if legal(Tree(node), r)]
    assert _legal_runs(node, maxlen) == want


RACE = parse_game(
    '''
    node winner=B {
      B"a" -> node winner=B {
        T"b" -> node winner=T {
          B"d" -> node winner=T {}
        }
        B"d" -> node winner=B {
          T"b" -> node winner=B {}
        }
      }
    }
    '''
)


def test_race_for_the_second_move_is_not_static():
    report = is_static(Tree(RACE))
    assert not report
    assert report.player is TOP
    assert report.original == run("B:a", "T:b", "B:d")
    assert report.delayed == run("B:a", "B:d", "T:b")


def test_plain_trees_are_static():
    assert is_static(Tree(RELAY))
    assert is_static(Tree(BEACON))
    assert is_static(Tree(PITFALL))


def test_the_static_check_takes_atom_games_only():
    with pytest.raises(ValueError):
        is_static(Rep(Tree(RELAY)))


# Trees that are not static, though every run that shows it is illegal: T
# wins Γ, whose last B move is illegal, and loses Γ's T-delay, in which T's
# own move is the illegal one.  A check that walks the legal runs and
# samples illegal ones misses both.
MISSED = [
    ('node winner=T { T"b" -> node winner=T { B"c" -> node winner=B {} T"c" -> node winner=T '
     '{ T"b" -> node winner=B {} B"a" -> node winner=B {} } } }', "T:b,T:c,B:c", "T:b,B:c,T:c"),
    ('node winner=B { T"b" -> node winner=T { B"a" -> node winner=T {} T"c" -> node winner=B '
     '{ T"c" -> node winner=T {} } } }', "T:b,T:c,B:a", "T:b,B:a,T:c"),
]


@pytest.mark.parametrize("text, gamma, delayed", MISSED, ids=[g for _, g, _ in MISSED])
def test_the_missed_trees_are_not_static(text, gamma, delayed):
    g = Tree(parse_game(text))
    gamma, delayed = parse_run(gamma), parse_run(delayed)
    assert is_delay_of(TOP, gamma, delayed)
    assert first_offender(g, gamma) is BOT and winner(g, gamma) is TOP
    assert first_offender(g, delayed) is TOP and winner(g, delayed) is BOT


@pytest.mark.parametrize("text, gamma, delayed", MISSED, ids=[g for _, g, _ in MISSED])
def test_the_static_check_finds_the_missed_trees(text, gamma, delayed):
    report = is_static(Tree(parse_game(text)))
    assert not report
    assert (report.player, report.original, report.delayed) == (
        TOP, parse_run(gamma), parse_run(delayed))


def height(node: GameNode) -> int:
    return max((1 + height(child) for _, _, child in node.edges), default=0)


shallow_trees = trees.filter(lambda node: height(node) <= 3)


@given(shallow_trees)
@settings(max_examples=300, deadline=None)
def test_the_static_check_agrees_with_brute_force(node):
    """The search reports a breach of least length, so one of at most 5
    moves exactly when brute force over the runs of at most 5 moves finds
    one, as long; each breach is a delay whose outcome the run-level
    referee shows flipped.  A tree takes the search milliseconds."""
    g = Tree(node)
    t0 = time.process_time()
    report = is_static(g)
    assert time.process_time() - t0 < 0.1
    found = first_breach(node, 5)
    if report:
        assert found is None, found
        return
    pi, gamma, delta = report.player, report.original, report.delayed
    assert len(found[1]) == len(gamma) if found else len(gamma) > 5
    assert is_delay_of(pi, gamma, delta)
    assert ((first_offender(g, gamma) is None and first_offender(g, delta) is pi)
            or (winner(g, gamma) is pi and winner(g, delta) is not pi))
