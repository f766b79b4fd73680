"""The initial basis: the SML-written prelude, bootstrapped through the
compiler itself."""

import threading

import pytest

from repro.basis import make_basis
from repro.dynamic.values import VCon, python_list


class TestListBasis:
    def test_map_filter(self, value_of):
        v = value_of(
            "val x = List.filter (fn n => n > 2) (map (fn n => n * 2) "
            "[1, 2, 3])", "x")
        assert python_list(v) == [4, 6]

    def test_foldl_foldr_order(self, value_of):
        src = ('val l = foldl (fn (c, acc) => acc ^ str c) "" '
               '(explode "abc") '
               'val r = foldr (fn (c, acc) => acc ^ str c) "" '
               '(explode "abc")')
        assert value_of(src, "l") == "abc"
        assert value_of(src, "r") == "cba"

    def test_nth_take_drop(self, value_of):
        src = ("val x = (List.nth ([10, 20, 30], 1), "
               "List.take ([1, 2, 3], 2), List.drop ([1, 2, 3], 2))")
        n, take, drop = value_of(src, "x")
        assert n == 20
        assert python_list(take) == [1, 2]
        assert python_list(drop) == [3]

    def test_concat_tabulate(self, value_of):
        src = ("val x = List.concat (List.tabulate (3, fn i => [i, i]))")
        assert python_list(value_of(src, "x")) == [0, 0, 1, 1, 2, 2]

    def test_partition(self, value_of):
        src = ("val (yes, no) = List.partition (fn n => n mod 2 = 0) "
               "[1, 2, 3, 4]")
        _env, frame = value_of.__closure__[0].cell_contents(src), None
        # simpler: use run_sml through value_of twice
        assert python_list(value_of(src + " val a = yes", "a")) == [2, 4]
        assert python_list(value_of(src + " val b = no", "b")) == [1, 3]

    def test_find(self, value_of):
        v = value_of("val x = List.find (fn n => n > 1) [1, 2, 3]", "x")
        assert isinstance(v, VCon) and v.name == "SOME" and v.arg == 2

    def test_mapPartial(self, value_of):
        src = ("val x = List.mapPartial "
               "(fn n => if n > 1 then SOME (n * n) else NONE) [1, 2, 3]")
        assert python_list(value_of(src, "x")) == [4, 9]

    def test_last(self, value_of):
        assert value_of("val x = List.last [1, 2, 3]", "x") == 3

    def test_zip(self, value_of):
        src = 'val x = List.zip ([1, 2, 3], ["a", "b"])'
        assert python_list(value_of(src, "x")) == [(1, "a"), (2, "b")]


class TestCharBasis:
    def test_predicates(self, value_of):
        src = ('val x = (Char.isDigit #"7", Char.isDigit #"x", '
               'Char.isAlpha #"g", Char.isSpace #" ", '
               'Char.isUpper #"G", Char.isLower #"g")')
        assert value_of(src, "x") == (True, False, True, True, True, True)

    def test_case_mapping(self, value_of):
        src = ('val x = (Char.toUpper #"a", Char.toLower #"Z", '
               'Char.toUpper #"!")')
        up, low, bang = value_of(src, "x")
        assert up.ch == "A" and low.ch == "z" and bang.ch == "!"

    def test_contains(self, value_of):
        src = ('val x = (Char.contains "abc" #"b", '
               'Char.contains "abc" #"z")')
        assert value_of(src, "x") == (True, False)


class TestStringBasis:
    def test_concat_with(self, value_of):
        src = ('val x = String.concatWith ", " ["a", "b", "c"]')
        assert value_of(src, "x") == "a, b, c"

    def test_concat_with_singleton(self, value_of):
        assert value_of('val x = String.concatWith "-" ["solo"]',
                        "x") == "solo"

    def test_map(self, value_of):
        src = 'val x = String.map Char.toUpper "mixed Case"'
        assert value_of(src, "x") == "MIXED CASE"

    def test_translate(self, value_of):
        src = ('val x = String.translate '
               '(fn c => if c = #" " then "_" else str c) "a b c"')
        assert value_of(src, "x") == "a_b_c"

    def test_prefix_suffix(self, value_of):
        src = ('val x = (String.isPrefix "ab" "abc", '
               'String.isPrefix "bc" "abc", '
               'String.isSuffix "bc" "abc")')
        assert value_of(src, "x") == (True, False, True)

    def test_fields_and_tokens(self, value_of):
        src = ('val f = String.fields (fn c => c = #",") "a,,b" '
               'val t = String.tokens (fn c => c = #",") "a,,b"')
        assert python_list(value_of(src, "f")) == ["a", "", "b"]
        assert python_list(value_of(src, "t")) == ["a", "b"]


class TestListPairBasis:
    def test_unzip(self, value_of):
        src = 'val (xs, ys) = ListPair.unzip [(1, "a"), (2, "b")]'
        assert python_list(value_of(src + " val out = xs", "out")) == [1, 2]
        assert python_list(value_of(src + " val out = ys",
                                    "out")) == ["a", "b"]

    def test_map(self, value_of):
        src = "val x = ListPair.map (fn (a, b) => a + b) ([1, 2], [10, 20])"
        assert python_list(value_of(src, "x")) == [11, 22]

    def test_all_exists(self, value_of):
        src = ("val x = (ListPair.all (fn (a, b) => a < b) "
               "([1, 2], [3, 4]), "
               "ListPair.exists (fn (a, b) => a = b) ([1, 2], [9, 2]))")
        assert value_of(src, "x") == (True, True)

    def test_foldl(self, value_of):
        src = ("val x = ListPair.foldl (fn (a, b, acc) => a * b + acc) 0 "
               "([1, 2, 3], [4, 5, 6])")
        assert value_of(src, "x") == 32


class TestOptionBasis:
    def test_option_map_join(self, value_of):
        src = ("val x = (Option.map (fn n => n + 1) (SOME 1), "
               "Option.join (SOME (SOME 2)), Option.join NONE)")
        a, b, c = value_of(src, "x")
        assert a == VCon("SOME", 2)
        assert b == VCon("SOME", 2)
        assert c == VCon("NONE")

    def test_get_opt(self, value_of):
        assert value_of("val x = getOpt (NONE, 9)", "x") == 9
        assert value_of("val x = getOpt (SOME 1, 9)", "x") == 1

    def test_filter(self, value_of):
        src = "val x = Option.filter (fn n => n > 0) 5"
        assert value_of(src, "x") == VCon("SOME", 5)


class TestLazyDynEnv:
    """Compiling never reads the dynamic basis; it is built (the
    primitives, then the prelude evaluated over them) by its first
    reader, and then it is the same environment for every reader."""

    def test_first_read_builds_it_and_every_read_returns_it(self):
        basis = make_basis(fresh=True)
        env = basis.dyn_env
        assert basis.dyn_env is env
        assert basis.child_envs()[1].parent is env
        # The prelude ran into it, over the primitives.
        assert env.lookup_value("rev") is not None
        assert env.lookup_structure("List") is not None

    def test_concurrent_first_reads_agree(self):
        basis = make_basis(fresh=True)
        seen = []
        start = threading.Barrier(4)

        def read():
            start.wait()
            seen.append(basis.dyn_env)

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 4
        assert all(env is seen[0] for env in seen)
