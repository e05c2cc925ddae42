package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core.GroupType.All
import repro.graph.{GraphGen, UpdateGen, UpdateMode}

/** A build in slices, each on a thread of its own, leaves every engine as
  * the one-slice build does, and so do update rounds after it: slots,
  * exact distributions, `memoryBytes`, `hasEdge` answers and, for Bingo,
  * the census and the conversion and touch counts.
  */
class SliceBuildSpec extends AnyFunSuite {

  private val factories: Seq[(EngineFactory, String)] = Seq(
    BingoEngine.factory() -> "Bingo adaptive",
    BingoEngine.factory(adaptive = false) -> "Bingo BS",
    KnightKingEngine.factory -> "KnightKing",
    GSamplerEngine.factory -> "gSampler",
    FlowWalkerEngine.factory -> "FlowWalker",
  )

  /** What the engine holds at vertex `u`: its slots, in slot order. */
  private def slots(e: WalkEngine, u: Int): Seq[Any] = e match {
    case b: BingoEngine =>
      val x = b.vertices(u)
      (0 until x.degree).map(s => (x.dstAt(s), x.scaledIntBiasAt(s), x.decimalAt(s)))
    case r: RebuildEngine => r.adj(u).dsts.toSeq.zip(r.adj(u).bias.take(r.adj(u).degree))
  }

  /** Engine-wide totals: memory and, for Bingo, census, conversions and touches. */
  private def totals(e: WalkEngine): Seq[Any] = e.memoryBytes +: (e match {
    case b: BingoEngine =>
      Seq(b.groupTypeCensus, All.map(b.conversions.touches), All.flatMap(f => All.map(b.conversions.conversions(f, _))))
    case _ => Nil
  })

  private def assertSame(got: WalkEngine, want: WalkEngine, ctx: String): Unit = {
    assert(totals(got) == totals(want), ctx)
    val n = want.numVertices
    (0 until n).foreach { u =>
      assert(slots(got, u) == slots(want, u), s"$ctx vertex $u")
      val dist = want.exactDistribution(u)
      assert(got.exactDistribution(u) == dist, s"$ctx vertex $u")
      // a neighbor, if any, and two vertices that mostly are not
      (dist.keys.take(1) ++ Seq((u * 7 + 1) % n, (u * 31 + 5) % n)).foreach { v =>
        assert(got.hasEdge(u, v) == want.hasEdge(u, v), s"$ctx hasEdge($u, $v)")
      }
    }
  }

  for (spec <- Seq(GraphGen.AM, GraphGen.LJ, GraphGen.TW)) {
    test(s"${spec.name}: every engine built in slices equals its one-slice build, then after 3 Mixed rounds") {
      val g = GraphGen.generate(spec)
      val plan = UpdateGen.plan(g.edges, UpdateMode.Mixed, 2000, 3, 18L)
      for ((f, tag) <- factories; p <- Seq(UpdateBatch.buildSlices, 3).distinct) {
        val sliced = f.build(g.numVertices, plan.initialEdges, p)
        val one = f.build(g.numVertices, plan.initialEdges, 1)
        assertSame(sliced, one, s"$tag ${spec.name} p=$p build")
        plan.rounds.foreach { r => sliced.applyRoundLocal(r); one.applyRoundLocal(r) }
        assertSame(sliced, one, s"$tag ${spec.name} p=$p after rounds")
      }
    }
  }
}
