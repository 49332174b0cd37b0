"""Call-graph construction and conservative call resolution."""

from repro.lint.callgraph import COMMON_METHOD_NAMES, build_call_graph
from repro.lint.engine import Violation, _build_module


def mod(source, name):
    built = _build_module(source, f"{name}.py", name)
    assert not isinstance(built, Violation)
    return built


def graph_of(*named_sources):
    return build_call_graph([mod(src, name) for name, src in named_sources])


def test_local_function_and_self_method_resolution():
    graph = graph_of(
        (
            "m",
            "def helper():\n"
            "    pass\n"
            "class Node:\n"
            "    def tick(self):\n"
            "        helper()\n"
            "        self.flush_state()\n"
            "    def flush_state(self):\n"
            "        pass\n",
        )
    )
    tick = graph.function("m:Node.tick")
    assert tick is not None and not tick.is_async
    assert tick.callees == {"m:helper", "m:Node.flush_state"}


def test_cross_module_import_resolution():
    graph = graph_of(
        ("util", "def settle():\n    pass\n"),
        (
            "m",
            "from util import settle\n"
            "import util\n"
            "def direct():\n"
            "    settle()\n"
            "def dotted():\n"
            "    util.settle()\n",
        ),
    )
    assert graph.function("m:direct").callees == {"util:settle"}
    assert graph.function("m:dotted").callees == {"util:settle"}


def test_self_attribute_built_from_a_class_resolves_its_methods():
    # ``tick`` is defined twice, so only the constructor assignment
    # tells the graph which one ``self.driver.tick()`` reaches.
    graph = graph_of(
        (
            "pipeline",
            "class Driver:\n"
            "    def tick(self):\n"
            "        pass\n"
            "class Clock:\n"
            "    def tick(self):\n"
            "        pass\n",
        ),
        (
            "m",
            "class Node:\n"
            "    def __init__(self):\n"
            "        self.driver = Driver()\n"
            "        self.mixed = Driver()\n"
            "    def rebuild(self):\n"
            "        self.mixed = Clock()\n"
            "    async def loop(self):\n"
            "        self.driver.tick()\n"
            "        self.mixed.tick()\n",
        ),
    )
    assert graph.function("m:Node.loop").callees == {"pipeline:Driver.tick"}


def test_unique_method_heuristic_and_common_name_blocklist():
    graph = graph_of(
        (
            "store",
            "class Storage:\n"
            "    def log_generated(self, m):\n"
            "        pass\n",
        ),
        (
            "m",
            "def run(storage, buf):\n"
            "    storage.log_generated(1)\n"
            "    buf.append(1)\n",
        ),
    )
    assert "append" in COMMON_METHOD_NAMES
    # log_generated is defined by exactly one class tree-wide -> edge;
    # append is a container verb -> never an edge.
    assert graph.function("m:run").callees == {"store:Storage.log_generated"}


def test_ambiguous_method_name_produces_no_edge():
    graph = graph_of(
        ("a", "class A:\n    def settle_down(self):\n        pass\n"),
        ("b", "class B:\n    def settle_down(self):\n        pass\n"),
        ("m", "def run(x):\n    x.settle_down()\n"),
    )
    assert graph.function("m:run").callees == set()


def test_callers_of_and_coroutines():
    graph = graph_of(
        (
            "m",
            "def leaf():\n"
            "    pass\n"
            "def middle():\n"
            "    leaf()\n"
            "async def root():\n"
            "    middle()\n",
        )
    )
    assert graph.callers_of("m:leaf") == {"m:middle"}
    assert graph.callers_of("m:middle") == {"m:root"}
    assert [f.qualname for f in graph.coroutines()] == ["m:root"]


def test_nested_defs_are_not_indexed():
    graph = graph_of(
        (
            "m",
            "def outer():\n"
            "    def inner():\n"
            "        pass\n"
            "    return inner\n",
        )
    )
    assert graph.function("m:outer") is not None
    assert graph.function("m:inner") is None
