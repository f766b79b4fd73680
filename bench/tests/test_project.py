from collections import Counter
from itertools import islice

from repro.cm import CutoffBuilder, Project
from repro.dynamic.values import format_value
from repro.workload import chain

from bench.project import KINDS, PROBE, BenchProject, schedule, t5_shape


def test_oracle_on_chain3():
    assert BenchProject(chain(3)).value() == 4


def test_oracle_on_t5():
    project = BenchProject(t5_shape())
    assert len(project.names) == 201
    assert len(project.sinks) == 55
    assert project.value() == 2110


def test_only_implementation_edits_move_the_oracle():
    project = BenchProject(t5_shape())
    sink = project.units[project.sinks[0]]
    project.apply("comment", sink)
    project.apply("iface", sink)
    project.apply("null", None)
    assert project.value() == 2110
    project.apply("impl", sink)
    assert project.value() == 2111


def test_oracle_agrees_with_the_compiler_after_edits():
    project = BenchProject(chain(3))
    project.apply("impl", "u000")
    project.apply("iface", "u001")
    project.apply("impl", "u002")
    builder = CutoffBuilder(Project.from_sources(
        {name: project.source(name) for name in project.names}))
    builder.build()
    main = builder.link()[PROBE].structures["Main"]
    assert format_value(main.values["result"]) == str(project.value()) == "6"


def test_cascade_is_the_unit_and_its_dependents():
    project = BenchProject(chain(3))
    assert project.cascade("u001") == {"u001", "u002", PROBE}
    assert project.cascade(None) == set()


def test_schedule_is_deterministic_per_seed():
    units = BenchProject(t5_shape()).units
    first = list(islice(schedule(7, units), 40))
    assert first == list(islice(schedule(7, units), 40))
    assert first != list(islice(schedule(8, units), 40))


def test_schedule_balances_kinds_in_every_block():
    units = BenchProject(t5_shape()).units
    requests = list(islice(schedule(3, units), 400))
    for start in range(0, len(requests), len(KINDS)):
        block = requests[start:start + len(KINDS)]
        assert Counter(kind for kind, _u in block) == Counter(KINDS)
    for kind, unit in requests:
        assert (unit is None) == (kind == "null")
        assert unit is None or unit in units
