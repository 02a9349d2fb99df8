"""Tests for graph construction/validation and fusion planning."""

import numpy as np
import pytest

from repro.data.streams import VectorStream
from repro.streams import (
    CollectingSink,
    Functor,
    FusionPlan,
    Graph,
    GraphError,
    ProcessingElement,
    ThreadedEngine,
    Union,
    VectorSource,
)


def _linear_graph(n_functors=2):
    g = Graph("lin")
    src = g.add(VectorSource("src", VectorStream.from_array(np.zeros((3, 2)))))
    prev = src
    fs = []
    for i in range(n_functors):
        f = g.add(Functor(f"f{i}", lambda t: t))
        g.connect(prev, f)
        prev = f
        fs.append(f)
    sink = g.add(CollectingSink("sink"))
    g.connect(prev, sink)
    return g, src, fs, sink


class TestGraph:
    def test_duplicate_names_rejected(self):
        g = Graph()
        g.add(Functor("f", lambda t: t))
        with pytest.raises(GraphError, match="duplicate operator name"):
            g.add(Functor("f", lambda t: t))

    def test_connect_unregistered_operator(self):
        g = Graph()
        a = g.add(Functor("a", lambda t: t))
        b = Functor("b", lambda t: t)
        with pytest.raises(GraphError, match="not in the graph"):
            g.connect(a, b)

    def test_connect_bad_ports(self):
        g = Graph()
        a = g.add(Functor("a", lambda t: t))
        b = g.add(Functor("b", lambda t: t))
        with pytest.raises(GraphError, match="no output port"):
            g.connect(a, b, out_port=1)
        with pytest.raises(GraphError, match="no input port"):
            g.connect(a, b, in_port=1)

    def test_duplicate_edge_rejected(self):
        g = Graph()
        a = g.add(Functor("a", lambda t: t))
        b = g.add(Functor("b", lambda t: t))
        g.connect(a, b)
        with pytest.raises(GraphError, match="duplicate edge"):
            g.connect(a, b)

    def test_successors_and_edges(self):
        g, src, fs, sink = _linear_graph()
        assert g.successors(src, 0) == [(fs[0], 0)]
        assert len(g.in_edges(fs[0])) == 1
        assert len(g.out_edges(fs[0])) == 1

    def test_validate_ok(self):
        g, *_ = _linear_graph()
        g.validate()

    def test_validate_no_sources(self):
        g = Graph()
        g.add(Functor("f", lambda t: t))
        with pytest.raises(GraphError, match="no sources"):
            g.validate()

    def test_validate_unconnected_input(self):
        g = Graph()
        g.add(VectorSource("src", VectorStream.from_array(np.zeros((1, 2)))))
        g.add(Functor("f", lambda t: t))
        with pytest.raises(GraphError, match="not connected"):
            g.validate()

    def test_validate_unreachable(self):
        g, src, fs, sink = _linear_graph()
        orphan_src = g.add(
            VectorSource("src2", VectorStream.from_array(np.zeros((1, 2))))
        )
        orphan = g.add(Functor("orphan", lambda t: t))
        loner = g.add(CollectingSink("loner"))
        g.connect(orphan_src, orphan)
        g.connect(orphan, loner)
        g.validate()  # reachable via src2 now
        # A truly dangling operator with a self-referential cycle only:
        a = g.add(Functor("cyc_a", lambda t: t))
        b = g.add(Functor("cyc_b", lambda t: t))
        g.connect(a, b)
        g.connect(b, a)
        with pytest.raises(GraphError, match="unreachable"):
            g.validate()

    def test_cycles_allowed_when_reachable(self):
        """The sync loop (engine ⇄ controller) must validate."""
        g = Graph()
        src = g.add(
            VectorSource("src", VectorStream.from_array(np.zeros((1, 2))))
        )
        a = g.add(Union("a", 2))
        b = g.add(Functor("b", lambda t: None))
        g.connect(src, a, in_port=0)
        g.connect(a, b)
        g.connect(b, a, in_port=1)
        g.validate()

    def test_len_and_iter(self):
        g, *_ = _linear_graph()
        assert len(g) == 4
        assert len(list(g)) == 4


class TestFusionPlan:
    def test_per_operator(self):
        g, *_ = _linear_graph()
        plan = FusionPlan.per_operator(g)
        # Every operator but the one sink, which has no PE.
        assert len(plan.pes) == len(g) - 1
        plan.validate(g)

    def test_from_groups(self):
        g, src, fs, sink = _linear_graph()
        plan = FusionPlan.from_groups(g, [[fs[0], fs[1], sink]])
        assert len(plan.pe_of(fs[0]).operators) == 2
        with pytest.raises(KeyError):
            plan.pe_of(sink)

    def test_declared_plane_is_the_default_plan(self):
        g, src, fs, sink = _linear_graph()
        g.declare_main([fs[0], fs[1]])
        engine = ThreadedEngine(g)
        assert engine.fusion.pe_of(fs[0]).operators == (fs[0], fs[1])
        with pytest.raises(GraphError, match="not in the graph"):
            g.declare_main([Functor("ghost", lambda t: t)])

    def test_declared_shared_group_is_a_second_default_pe(self):
        g, src, fs, sink = _linear_graph(n_functors=4)
        g.declare_main([fs[0]])
        g.declare_shared([fs[2], fs[3]])
        pes = ThreadedEngine(g).fusion
        assert pes.pe_of(fs[0]).operators == (fs[0],)
        assert pes.pe_of(fs[2]).operators == (fs[2], fs[3])
        assert pes.pe_of(fs[1]).operators == (fs[1],)
        with pytest.raises(GraphError, match="not in the graph"):
            g.declare_shared([Functor("ghost", lambda t: t)])
        g.declare_shared([fs[0]])
        with pytest.raises(GraphError, match="multiple PEs"):
            ThreadedEngine(g)

    def test_validate_rejects_a_sink_in_a_pe(self):
        g, src, fs, sink = _linear_graph()
        plan = FusionPlan.per_operator(g)
        plan.pes.append(ProcessingElement(len(plan.pes), (sink,)))
        with pytest.raises(GraphError, match="sinks"):
            plan.validate(g)

    def test_validate_missing_operator(self):
        g, src, fs, sink = _linear_graph()
        plan = FusionPlan.per_operator(g)
        plan.pes = plan.pes[:-1]
        with pytest.raises(GraphError, match="missing"):
            plan.validate(g)

    def test_validate_duplicate_assignment(self):
        g, src, fs, sink = _linear_graph()
        plan = FusionPlan.per_operator(g)
        plan.pes.append(plan.pes[-1])
        with pytest.raises(GraphError, match="multiple PEs"):
            plan.validate(g)

    def test_source_must_be_alone(self):
        g, src, fs, sink = _linear_graph()
        with pytest.raises(GraphError, match="alone"):
            FusionPlan.from_groups(g, [[src, fs[0]]])

    def test_pe_of_unknown(self):
        g, *_ = _linear_graph()
        plan = FusionPlan.per_operator(g)
        with pytest.raises(KeyError):
            plan.pe_of(Functor("ghost", lambda t: t))
