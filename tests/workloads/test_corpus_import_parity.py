"""Live and recipe imports of a fuzzed corpus agree.

A corpus run imports live: against the world's own struct registry and
its subsystem's filters.  A cached re-import of the same trace goes
through the workload's database recipe instead (for net, the combined
vfs+net registry and filters).  The trace cache relies on the two
being equal, so they are compared here on kept access rows, fold
groups and health.
"""

import random

import pytest

from repro.core.observations import ObservationTable
from repro.db.importer import import_tracer
from repro.fuzz.corpus import Corpus, CorpusEntry
from repro.fuzz.feedback import CoverageMap
from repro.fuzz.mutate import random_program
from repro.workloads import registry


def _groups(db):
    table = ObservationTable.from_database(db)
    return (
        table.total,
        table.synthetic_excluded,
        [(key, table.sequences(*key), table.groups(*key)) for key in table.keys()],
    )


@pytest.mark.parametrize("subsystem", ("vfs", "net"))
def test_live_import_equals_recipe_import(tmp_path, subsystem):
    rng = random.Random(7)
    corpus = Corpus(CoverageMap(), seed=0, subsystem=subsystem)
    for index in range(4):
        program = random_program(rng, max_threads=3, max_ops=12, subsystem=subsystem)
        corpus.entries.append(
            CorpusEntry(index, program, CoverageMap(), CoverageMap(), 0, 1.0)
        )
    path = str(tmp_path / f"{subsystem}.json")
    corpus.save(path)
    name = f"fuzz:{path}"

    result = registry.run(name, 0, 1)
    live = result.to_database()
    recipe = import_tracer(
        result.tracer, *registry.database_inputs(registry.db_recipe(name))
    )

    assert registry.db_recipe(name) == subsystem
    assert live.kept_accesses()
    assert live.kept_accesses() == recipe.kept_accesses()
    assert _groups(live) == _groups(recipe)
    assert live.health == recipe.health
