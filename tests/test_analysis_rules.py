"""Per-rule unit tests for the reprolint AST rules.

Every rule is exercised three ways: a positive case (the violation is
found), a negative case (the sanctioned idiom is not flagged), and a
suppressed case (an inline ``# reprolint: disable=`` comment downgrades
the finding to suppressed without losing it from the report).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_source

#: Lint under a guarded-package path so guarded-only rules participate.
GUARDED_PATH = "src/repro/core/example.py"
#: A path outside the repro tree: only universal rules apply.
PLAIN_PATH = "tools/example.py"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"


def open_ids(source: str, path: str = GUARDED_PATH) -> list:
    return [f.rule_id for f in lint_source(source, path=path) if not f.suppressed]


def suppressed_ids(source: str, path: str = GUARDED_PATH) -> list:
    return [f.rule_id for f in lint_source(source, path=path) if f.suppressed]


# Each entry: rule id, positive snippet, negative snippet. The suppressed
# case is derived from the positive snippet automatically.
RULE_CASES = [
    (
        "RL001",
        "import random\nx = random.random()\n",
        "import numpy as np\nrng = np.random.default_rng(7)\nx = rng.random()\n",
    ),
    (
        "RL002",
        "import time\ndef f():\n    return time.time()\n",
        "def f(now):\n    return now + 1\n",
    ),
    (
        "RL003",
        "def f(aux_vc):\n    return aux_vc == 0.25\n",
        "def f(aux_vc):\n    return aux_vc >= 0.25\n",
    ),
    (
        "RL004",
        "def f(history=[]):\n    return history\n",
        "def f(history=None):\n    return history or []\n",
    ),
    (
        "RL005",
        "def f(g):\n    try:\n        g()\n    except:\n        raise ValueError\n",
        "def f(g):\n    try:\n        g()\n    except RuntimeError:\n        raise ValueError\n",
    ),
    (
        "RL006",
        "def f(g):\n    try:\n        g()\n    except ValueError:\n        pass\n",
        "def f(g, log):\n    try:\n        g()\n    except ValueError as exc:\n        log(exc)\n",
    ),
    (
        "RL007",
        "def f(items):\n    for x in set(items):\n        yield x\n",
        "def f(items):\n    for x in sorted(set(items)):\n        yield x\n",
    ),
    (
        "RL008",
        "def f(x):\n    print(x)\n",
        "def f(x, sink):\n    sink.write(str(x))\n",
    ),
    (
        "RL009",
        "import multiprocessing\np = multiprocessing.Pool()\n",
        "from repro.parallel import SweepExecutor\nex = SweepExecutor(jobs=2)\n",
    ),
    (
        "RL011",
        "def f(g, cache):\n    try:\n        g()\n    except ValueError:\n        cache.clear()\n",
        "def f(g, probe):\n    try:\n        g()\n    except ValueError:\n        probe.count('fail', 1)\n",
    ),
    (
        "RL012",
        "import numpy as np\nw = int(np.zeros(8).argmin())\n",
        "import numpy as np\nkeys = np.zeros(8, dtype=np.int64)\n"
        "# tie-break: keys are unique, argmin cannot tie.\n"
        "w = int(keys.argmin())\n",
    ),
    (
        "RL013",
        "class Bad(IterativeArbiter):\n"
        "    def _grant_phase(self, backlog):\n"
        "        self._cache = dict(backlog)\n"
        "        return {}\n",
        "class Good(IterativeArbiter):\n"
        "    def _grant_phase(self, backlog):\n"
        "        offers = {}\n"
        "        return offers\n"
        "    def _accept_phase(self, offers):\n"
        "        self._accept_pointers[0] = 1\n"
        "        return offers\n",
    ),
    (
        "RC101",
        "def f(arb, reqs, now):\n    w = arb.select(reqs, now)\n    w.use()\n",
        "def f(arb, reqs, now):\n    w = arb.select(reqs, now)\n    arb.commit(w, now)\n",
    ),
    (
        "RC102",
        "t = ThermometerCode(positions=4, level=4)\n",
        "t = ThermometerCode(positions=4, level=3)\n",
    ),
    (
        "RC103",
        "def build(config):\n    return config\n",
        "def build(config: int) -> int:\n    return config\n",
    ),
]

RULE_IDS = [case[0] for case in RULE_CASES]


def _suppress(positive: str, rule_id: str) -> str:
    """Prefix the positive snippet with a next-line suppression comment.

    The comment guards only its following line, so it is attached to the
    line each rule reports on (the flagged expression's line).
    """
    lines = positive.splitlines()
    flagged = {f.line for f in lint_source(positive, path=GUARDED_PATH) if f.rule_id == rule_id}
    out = []
    for number, line in enumerate(lines, start=1):
        if number in flagged:
            indent = line[: len(line) - len(line.lstrip())]
            out.append(f"{indent}# reprolint: disable={rule_id}")
        out.append(line)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("rule_id,positive,negative", RULE_CASES, ids=RULE_IDS)
def test_positive_case_is_flagged(rule_id, positive, negative):
    assert rule_id in open_ids(positive)


@pytest.mark.parametrize("rule_id,positive,negative", RULE_CASES, ids=RULE_IDS)
def test_negative_case_is_clean(rule_id, positive, negative):
    assert rule_id not in open_ids(negative)


@pytest.mark.parametrize("rule_id,positive,negative", RULE_CASES, ids=RULE_IDS)
def test_suppression_comment_downgrades_finding(rule_id, positive, negative):
    suppressed_source = _suppress(positive, rule_id)
    assert rule_id not in open_ids(suppressed_source)
    assert rule_id in suppressed_ids(suppressed_source)


# ------------------------------------------------------------- rule details


def test_wall_clock_allowed_outside_guarded_packages():
    source = "import time\ndef f():\n    return time.time()\n"
    assert open_ids(source, path=PLAIN_PATH) == []
    assert "RL002" in open_ids(source, path="src/repro/switch/x.py")


def test_trailing_suppression_on_same_line():
    source = "import random\nx = random.random()  # reprolint: disable=unseeded-rng\n"
    assert open_ids(source) == []
    assert suppressed_ids(source) == ["RL001"]


def test_file_level_suppression_covers_all_occurrences():
    source = (
        "# reprolint: disable-file=RL004\n"
        "def f(a=[]):\n    return a\n"
        "def g(b={}):\n    return b\n"
    )
    assert open_ids(source) == []
    assert suppressed_ids(source) == ["RL004", "RL004"]


def test_suppression_inside_string_literal_is_ignored():
    source = 'msg = "# reprolint: disable=RL004"\ndef f(a=[]):\n    return a\n'
    assert "RL004" in open_ids(source)


def test_unseeded_rng_flags_legacy_numpy_global_state():
    source = "import numpy as np\nx = np.random.randint(0, 4)\n"
    assert "RL001" in open_ids(source)


def test_float_equality_flags_division_operand():
    source = "def f(a, b, c):\n    return a == b / c\n"
    assert "RL003" in open_ids(source)


def test_select_with_keyword_arguments_is_not_the_arbiter_protocol():
    # The sense-amp mux's select(level, gl_request=...) must not be
    # mistaken for SSVCCore.select(candidates, now).
    source = "def f(mux, level):\n    wire = mux.select(level, gl_request=True)\n    return wire + 1\n"
    assert "RC101" not in open_ids(source)


def test_pure_select_methods_are_exempt_from_rc101():
    source = (
        "class A:\n"
        "    def select(self, reqs, now):\n"
        "        return self.core.select(reqs, now)\n"
    )
    assert "RC101" not in open_ids(source)


def test_fan_out_import_exempts_the_parallel_subsystem():
    source = "from concurrent.futures import ProcessPoolExecutor\n"
    assert "RL009" in open_ids(source, path=PLAIN_PATH)
    assert "RL009" in open_ids(source, path="src/repro/experiments/x.py")
    assert open_ids(source, path="src/repro/parallel/executor.py") == []


def test_fan_out_import_flags_the_concurrent_package_spellings():
    for source in (
        "import concurrent.futures\n",
        "from concurrent import futures\n",
        "from multiprocessing.pool import ThreadPool\n",
    ):
        assert "RL009" in open_ids(source, path=PLAIN_PATH), source


def test_fault_deep_import_flags_every_spelling():
    for source in (
        "from repro.faults.injector import FaultInjector\n",
        "from repro.faults.plan import FaultPlan\n",
        "import repro.faults.injector\n",
        "from ..faults.injector import FaultInjector\n",
    ):
        assert "RL010" in open_ids(source, path=GUARDED_PATH), source


def test_fault_facade_import_is_sanctioned():
    for source in (
        "from repro.faults import FaultPlan, resolve_injector\n",
        "from ..faults import FaultInjector\n",
        "import repro.faults\n",
    ):
        assert "RL010" not in open_ids(source, path=GUARDED_PATH), source


def test_fault_deep_import_exempts_the_faults_package():
    source = "from repro.faults.plan import FaultSpec\n"
    assert "RL010" in open_ids(source, path=PLAIN_PATH)
    assert open_ids(source, path="src/repro/faults/injector.py") == []


def test_numpy_determinism_fires_only_in_guarded_packages():
    source = "import numpy as np\nx = np.random.shuffle([1, 2])\n"
    assert "RL012" not in open_ids(source, path=PLAIN_PATH)
    assert "RL012" in open_ids(source, path="src/repro/switch/x.py")


def fixture_ids(name: str, rule_id: str) -> list:
    """Open ``rule_id`` findings on a fixture linted as a guarded module."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return [
        rule for rule in open_ids(source, path=f"src/repro/qos/{name}")
        if rule == rule_id
    ]


def test_numpy_determinism_fixture_pair():
    # One finding per offending function in the bad fixture.
    assert len(fixture_ids("bad_numpy_module.py", "RL012")) == 7
    assert fixture_ids("good_numpy_module.py", "RL012") == []


def test_numpy_determinism_accepts_string_and_dotted_float_dtypes():
    for snippet in (
        "import numpy as np\na = np.empty(4, dtype='float32')\n",
        "import numpy as np\na = np.full(4, 0, dtype=np.double)\n",
        "import numpy as np\na = np.array([1], dtype=float)\n",
    ):
        assert "RL012" in open_ids(snippet), snippet
    for snippet in (
        "import numpy as np\na = np.full(4, 0, dtype=np.int64)\n",
        "import numpy as np\na = np.array([1.0])\n",  # no explicit dtype
        "import numpy as np\na = np.arange(4)\n",
    ):
        assert "RL012" not in open_ids(snippet), snippet


def test_rule_registry_is_complete_and_unique():
    rules = all_rules()
    ids = [r.id for r in rules]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 8
    assert set(RULE_IDS) <= set(ids)


def test_iterative_contract_fixture_pair():
    # One finding per documented contract breach in the bad fixture.
    assert len(fixture_ids("bad_iterative_module.py", "RL013")) == 5
    assert fixture_ids("good_iterative_module.py", "RL013") == []


def test_iterative_contract_pointer_writes_need_accept_phase():
    pointer_in_match = (
        "class S(IterativeArbiter):\n"
        "    def match(self, backlog, free_outputs, now):\n"
        "        self._grant_pointers[0] = 1\n"
        "        return ()\n"
    )
    assert "RL013" in open_ids(pointer_in_match)
    pointer_in_init = (
        "class S(IterativeArbiter):\n"
        "    def __init__(self, n):\n"
        "        self._grant_pointers = [0] * n\n"
    )
    assert "RL013" not in open_ids(pointer_in_init)
    # Classes outside the IterativeArbiter hierarchy are not the rule's
    # business, whatever their methods are called.
    unrelated = (
        "class S:\n"
        "    def _grant_phase(self, backlog):\n"
        "        self._cache = dict(backlog)\n"
        "        return {}\n"
    )
    assert "RL013" not in open_ids(unrelated)


def test_iterative_contract_flags_backlog_mutation():
    source = (
        "class S(IterativeArbiter):\n"
        "    def _propose_phase(self, backlog, now):\n"
        "        backlog[0].pop(1)\n"
        "        return []\n"
    )
    assert "RL013" in open_ids(source)
