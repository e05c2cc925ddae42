package roundbench

import repro.engine.{BingoEngine, EngineFactory, KnightKingEngine, WalkEngine}
import repro.graph.{Edge, GraphGen, Update}
import repro.walk.Walks

class TracingEngineSpec extends org.scalatest.funsuite.AnyFunSuite {

  private val edges = GraphGen.generate(GraphGen.AM).edges
  private val n = GraphGen.AM.nVertices
  private val apps = Seq(Walks.DeepWalk(30), Walks.Node2vec(30), Walks.Ppr())

  /** Two engines from one snapshot, the second behind a tracer; the same
    * three update rounds go into each.
    */
  private def pair(factory: EngineFactory): (WalkEngine, TracingEngine) = {
    val stream = new UpdateStream(edges, 2000, seed = 11)
    val plain = factory.build(n, stream.initialEdges)
    val traced = new TracingEngine(factory.build(n, stream.initialEdges))
    (1 to 3).foreach { _ =>
      val b = stream.nextBatch(1500)
      plain.applyRoundLocal(b)
      traced.applyRoundLocal(b)
    }
    (plain, traced)
  }

  for (factory <- Seq(BingoEngine.factory(), KnightKingEngine.factory)) {
    test(s"${factory.name}: tracing leaves walk paths and exact distributions unchanged") {
      val (plain, traced) = pair(factory)
      for (app <- apps; wid <- 0L until 200L) {
        val start = (wid * 17 % n).toInt
        val a = Walks.walkPath(plain, app, start, Walks.walkerRng(5, wid))
        val b = Walks.walkPath(traced, app, start, Walks.walkerRng(5, wid))
        assert(a.sameElements(b), s"${app.label} walker $wid")
      }
      (0 until n).foreach(u => assert(plain.exactDistribution(u) == traced.exactDistribution(u), s"vertex $u"))
      (0 until n).foreach(u => assert(plain.outDegree(u) == traced.outDegree(u)))
    }
  }

  test("calls outside a Spark task are summed under task -1, once per call") {
    val traced = new TracingEngine(BingoEngine.factory().build(3, Seq(Edge(0, 1, 1), Edge(1, 0, 2))))
    traced.applyRoundLocal(Seq(Update(0, insert = true, 2, 0, 3), Update(1, insert = false, 2, 0, 3)))
    val rng = Walks.walkerRng(1, 1)
    (1 to 1000).foreach(_ => assert(traced.sampleNext(0, rng) == 1))
    (1 to 10).foreach(_ => assert(traced.sampleNext(2, rng) == -1))
    (1 to 5).foreach(_ => assert(traced.hasEdge(0, 1)))
    val Seq(t) = traced.drain()
    assert((t.taskId, t.round, t.job) == ((-1L, -1, "none")))
    assert(t.updates == 2 && t.sampleCalls == 1010 && t.deadEnds == 10 && t.hasEdgeCalls == 5)
    assert(t.sampleNs > 0 && t.updateNs > 0 && t.engineNs == t.updateNs + t.rebuildNs + t.sampleNs + t.hasEdgeNs)
    assert(traced.drain().isEmpty)
  }
}
