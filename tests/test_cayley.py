"""The Cayley search and the fraction-key step against uncached
references.

``reference_distance`` is the level-synchronized bidirectional search
over fraction keys with no cache of any kind: every neighbour comes
from ``oracles.step`` on the full automaton alphabet, D' included, in a
structure of its own context.  ``cayley_distance`` interns keys, leaves
the D' edges out and caches pair distances; it must agree with the
reference on every distance and on every exception, however warm its
caches are."""

import itertools

import pytest

from garside import (DELTA_INV, MonoidContext, ResourceLimitExceeded,
                     build_automaton, build_structure, fixture, to_fraction)
from garside.automaton import cayley_distance
from garside.delta import _strip
from oracles import step

CASES = (("M1", "aa"), ("M2", "aa"), ("M3", "ac"), ("B3", "s1s2s1"),
         ("free_comm(3)", "abc"))


def structure(name, delta):
    ctx = MonoidContext(fixture(name))
    return ctx, build_structure(ctx, ctx.element(delta))


def reference_distance(gs, key1, key2, max_dist=16, node_cap=200_000):
    if key1 == key2:
        return 0
    letters = build_automaton(gs.ctx, gs).letters

    def neighbours(key):
        return [step(gs, key, letter, sign)
                for letter in letters for sign in (1, -1)]

    front_a, front_b = {key1: 0}, {key2: 0}
    seen_a, seen_b = dict(front_a), dict(front_b)
    depth_a = depth_b = 0
    dist = None
    while front_a and front_b:
        if dist is not None and dist <= depth_a + depth_b + 1:
            break
        if depth_a + depth_b >= max_dist:
            break
        if len(seen_a) + len(seen_b) > node_cap:
            raise ResourceLimitExceeded(
                f"distance search exceeded {node_cap} nodes")
        if len(front_a) > len(front_b):
            front_a, front_b = front_b, front_a
            seen_a, seen_b = seen_b, seen_a
            depth_a, depth_b = depth_b, depth_a
        new = {}
        for key, d in front_a.items():
            for nxt in neighbours(key):
                if nxt in seen_b:
                    cand = d + 1 + seen_b[nxt]
                    if dist is None or cand < dist:
                        dist = cand
                if nxt not in seen_a:
                    seen_a[nxt] = d + 1
                    new[nxt] = d + 1
        front_a = new
        depth_a += 1
    if dist is None or dist > max_dist:
        raise ResourceLimitExceeded(
            f"no path of length <= {max_dist} between the elements")
    return dist


def outcome(search, *args, **limits):
    """The distance, or the message of the ResourceLimitExceeded."""
    try:
        return search(*args, **limits)
    except ResourceLimitExceeded as exc:
        return ("raised", str(exc))


def ball_keys(gs):
    """Stripped keys (k, x) for x in the radius-2 ball and k in {0, 1}."""
    return sorted({_strip(gs, k, x) for x in gs.ctx.enumerate_ball(2)
                   for k in (0, 1)})


@pytest.mark.parametrize("name,delta", CASES)
def test_cayley_distance_matches_the_reference_search(name, delta):
    ctx, gs = structure(name, delta)
    _, ref = structure(name, delta)
    one = (0, ctx.one)
    letters = build_automaton(ctx, gs).letters
    assert DELTA_INV in letters
    keys = ball_keys(gs)
    targets = keys + [step(gs, key, letter, sign) for key in keys
                      for letter, sign in itertools.product(letters, (1, -1))]
    # the node cap first, while the pair cache is cold: distance-1 pairs
    # are settled on the first expansion and every longer one trips it
    capped = [outcome(cayley_distance, ctx, gs, one, t, node_cap=4)
              for t in targets]
    assert capped == [outcome(reference_distance, ref, one, t, node_cap=4)
                      for t in targets]
    assert ("raised", "distance search exceeded 4 nodes") in capped
    assert 1 in capped
    dists = [cayley_distance(ctx, gs, one, t) for t in targets]
    assert dists == [reference_distance(ref, one, t) for t in targets]
    # now every pair is cached, and max_dist still binds
    bounded = [outcome(cayley_distance, ctx, gs, one, t, max_dist=1)
               for t in targets]
    assert bounded == [outcome(reference_distance, ref, one, t, max_dist=1)
                       for t in targets]
    assert ("raised", "no path of length <= 1 between the elements") in bounded


def test_cached_distance_beyond_max_dist_raises_like_a_fresh_search():
    ctx, gs = structure("B3", "s1s2s1")
    one = (0, ctx.one)
    key = _strip(gs, 1, ctx.element("s1s1s1s2s2s2"))
    no_path = r"no path of length <= 1 between the elements"
    with pytest.raises(ResourceLimitExceeded, match=no_path):
        cayley_distance(ctx, gs, one, key, max_dist=1)
    assert cayley_distance(ctx, gs, one, key) == 5
    with pytest.raises(ResourceLimitExceeded, match=no_path):
        cayley_distance(ctx, gs, one, key, max_dist=1)
    with pytest.raises(ResourceLimitExceeded, match="length <= 4 "):
        cayley_distance(ctx, gs, key, one, max_dist=4)
    assert cayley_distance(ctx, gs, key, one, max_dist=5) == 5


@pytest.mark.parametrize("name,delta", CASES)
def test_mul_letter_by_non_letters_warm_and_fresh(name, delta):
    # a non-letter g takes the to_fraction path: its embedding exponent
    # and complement are not those of any alphabet letter
    warm, wgs = structure(name, delta)
    letters = set(build_automaton(warm, wgs).letters)
    others = [g for g in sorted(warm.enumerate_ball(3))
              if g.norm and g not in letters]
    assert others
    keys = ball_keys(wgs)
    for g in others:
        fresh, fgs = structure(name, delta)
        fg = fresh.canonical(g.canon)
        for key, sign in itertools.product(keys, (1, -1)):
            got = step(wgs, key, g, sign)
            assert step(wgs, key, g, sign) == got
            assert step(fgs, key, fg, sign) == got, (key, g, sign)
            # the stripped key is a normal form: g^sign g^-sign cancels
            assert step(wgs, got, g, -sign) == key
        for x in sorted(warm.enumerate_ball(2)):
            assert (to_fraction(warm, wgs, x, g)
                    == to_fraction(fresh, fgs, fresh.canonical(x.canon),
                                   fg))


@pytest.mark.parametrize("name,delta", [
    ("M1", "aa"), ("M2", "ab"), ("M3", "ac"), ("B3", "s1s2s1"),
    ("free_comm(3)", "abc")])
def test_an_unstripped_public_key_is_the_element_it_names(name, delta):
    # (k + 1, delta x) is delta^-(k+1) delta x = delta^-k x: both kinds
    # of arithmetic strip a public key, so the search sees one element
    ctx, gs = structure(name, delta)
    keys = ball_keys(gs)
    targets = keys[::3] + [(0, ctx.one)]
    for k, x in keys[::2]:
        raised = (k + 1, ctx.mul(gs.delta, x))
        assert cayley_distance(ctx, gs, raised, (k, x)) == 0
        assert cayley_distance(ctx, gs, (k, x), raised) == 0
        for t in targets:
            assert (cayley_distance(ctx, gs, raised, t)
                    == cayley_distance(ctx, gs, (k, x), t)), (k, x, t)


def test_cached_distance_honours_the_node_cap_like_a_fresh_search():
    # from the identity, delta^-1 s1s1s1s2s2s2 is 5 away; a fresh search
    # checks 90 nodes against the cap before it meets
    ctx, gs = structure("B3", "s1s2s1")
    one = (0, ctx.one)
    key = _strip(gs, 1, ctx.element("s1s1s1s2s2s2"))
    over = "distance search exceeded 50 nodes"
    with pytest.raises(ResourceLimitExceeded, match=over):
        cayley_distance(ctx, gs, one, key, node_cap=50)
    assert cayley_distance(ctx, gs, one, key) == 5
    for a, b in ((one, key), (key, one)):
        with pytest.raises(ResourceLimitExceeded, match=over):
            cayley_distance(ctx, gs, a, b, node_cap=50)
        assert cayley_distance(ctx, gs, a, b, node_cap=90) == 5
    # under max_dist=2 a fresh search checks only the first two levels
    # against the cap, so it runs out of length, not of nodes
    with pytest.raises(ResourceLimitExceeded, match="length <= 2 "):
        cayley_distance(ctx, gs, one, key, max_dist=2, node_cap=50)


@pytest.mark.parametrize("name,delta", CASES)
def test_warm_pair_cache_gives_the_fresh_outcomes(name, delta):
    # every pair is cached by an unbounded search first; each bounded
    # call must then raise or answer as the uncached reference does
    ctx, gs = structure(name, delta)
    _, ref = structure(name, delta)
    keys = ball_keys(gs)
    pairs = [(a, b) for a in keys[:6] for b in keys]
    for a, b in pairs:
        cayley_distance(ctx, gs, a, b)
    seen = set()
    for max_dist, node_cap in itertools.product((1, 2, 3, 16), (4, 30, 200)):
        for a, b in pairs:
            got = outcome(cayley_distance, ctx, gs, a, b,
                          max_dist=max_dist, node_cap=node_cap)
            assert got == outcome(reference_distance, ref, a, b,
                                  max_dist=max_dist, node_cap=node_cap), (
                a, b, max_dist, node_cap)
            seen.add(got if isinstance(got, int) else got[1].split()[0])
    assert {"distance", "no"} <= seen
