package repro.engine

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import org.scalactic.Tolerance
import scala.util.Random
import repro.StatCheck
import repro.graph._

/** All four systems must agree exactly with the ground-truth transition
  * distribution after every round of every update mode — the correctness
  * backbone behind Table 3's runtime comparison.
  */
class EngineSpec extends AnyFunSuite with Tolerance {

  private val factories: Seq[(EngineFactory, String)] = Seq(
    BingoEngine.factory() -> "Bingo-batched",
    BingoEngine.factory(adaptive = false) -> "Bingo-baseline",
    KnightKingEngine.factory -> "KnightKing",
    GSamplerEngine.factory -> "gSampler",
    FlowWalkerEngine.factory -> "FlowWalker",
  )

  /** Tiny deterministic graph + plan for exhaustive per-round checking. */
  private def smallWorld(seed: Int): (Int, Vector[Edge]) = {
    val rnd = new Random(seed)
    val v = 30
    val edges = (for {
      s <- 0 until v
      d <- rnd.shuffle((0 until v).filter(_ != s).toList).take(5 + rnd.nextInt(6))
    } yield Edge(s, d, (1 + rnd.nextInt(100)).toDouble)).toVector
    (v, edges.distinctBy(e => (e.src, e.dst)))
  }

  private def groundTruth(edges: Iterable[Edge]): Map[Int, Map[Int, Double]] =
    edges.groupBy(_.src).map { case (s, es) =>
      val tot = es.map(_.bias).sum
      s -> es.groupBy(_.dst).map { case (d, dd) => d -> dd.map(_.bias).sum / tot }
    }

  /** Exact distributions and out-degrees (duplicates counted) against the live edges. */
  private def checkEngine(eng: WalkEngine, live: Iterable[Edge], v: Int): Unit = {
    val truth = groundTruth(live)
    val degree = live.groupBy(_.src).map { case (s, es) => s -> es.size }
    (0 until v).foreach { u =>
      val exp = truth.getOrElse(u, Map.empty)
      val got = eng.exactDistribution(u)
      assert(got.keySet == exp.keySet, s"${eng.name} vertex $u: ${got.keySet} vs ${exp.keySet}")
      exp.foreach { case (d, p) => StatCheck.assertProbEqual(got(d), p, 1e-9) }
      assert(eng.outDegree(u) == degree.getOrElse(u, 0), s"${eng.name} vertex $u out-degree")
    }
  }

  for ((f, tag) <- factories) {
    test(s"$tag: initial build matches ground truth") {
      val (v, edges) = smallWorld(1)
      val eng = f.build(v, edges)
      checkEngine(eng, edges, v)
    }
  }

  test("every factory rejects a snapshot edge with a bad src or dst, or a bias that is not positive and finite") {
    val badBias = "has a bias that is not positive and finite"
    val bad = Seq(
      Edge(-1, 0, 1.0) -> "has a negative src",
      Edge(0, -2, 1.0) -> "has a negative dst",
      Edge(3, 0, 1.0) -> "names a vertex outside the engine's 3 vertices",
      Edge(0, 3, 1.0) -> "names a vertex outside the engine's 3 vertices",
    ) ++ Seq(0.0, -2.0, Double.NaN, Double.PositiveInfinity).map(w => Edge(0, 2, w) -> badBias) :+
      Edge(0, 2, 1e19) -> "has a bias of 2^63 or more"
    for ((f, tag) <- factories; (e, msg) <- bad) {
      val ex = intercept[IllegalArgumentException](f.build(3, Seq(Edge(0, 1, 1.0), e)))
      assert(ex.getMessage.contains(s"snapshot edge $e $msg"), s"$tag: ${ex.getMessage}")
    }
  }

  for ((f, tag) <- factories; mode <- UpdateMode.All) {
    test(s"$tag stays exact through ${mode.label} rounds") {
      val (v, edges) = smallWorld(2)
      val plan = UpdateGen.plan(edges, mode, batchSize = 15, rounds = 4, seed = 5L)
      val eng = f.build(v, plan.initialEdges)
      checkEngine(eng, plan.initialEdges, v)
      plan.rounds.zipWithIndex.foreach { case (round, k) =>
        eng.applyRoundLocal(round)
        val liveEdges = plan
          .edgeMultisetAfter(k + 1)
          .flatMap { case ((s, d, b), c) => Seq.fill(c)(Edge(s, d, b)) }
        checkEngine(eng, liveEdges, v)
      }
    }
  }

  test("all engines produce identical exact distributions after mixed updates") {
    val (v, edges) = smallWorld(3)
    val plan = UpdateGen.plan(edges, UpdateMode.Mixed, 20, 3, 9L)
    val engines = factories.map(_._1.build(v, plan.initialEdges))
    engines.foreach(e => plan.rounds.foreach(e.applyRoundLocal))
    val ref = engines.head
    (0 until v).foreach { u =>
      val base = ref.exactDistribution(u)
      engines.tail.foreach { e =>
        val got = e.exactDistribution(u)
        assert(got.keySet == base.keySet, s"${e.name} vertex $u")
        base.foreach { case (d, p) => StatCheck.assertProbEqual(got(d), p, 1e-9) }
      }
    }
  }

  test("hasEdge agrees across engines and reflects updates") {
    val (v, edges) = smallWorld(4)
    val plan = UpdateGen.plan(edges, UpdateMode.Mixed, 20, 2, 10L)
    val engines = factories.map(_._1.build(v, plan.initialEdges))
    engines.foreach(e => plan.rounds.foreach(e.applyRoundLocal))
    val live = plan.edgeMultisetAfter(2).keySet.map { case (s, d, _) => (s, d) }
    for (s <- 0 until v; d <- 0 until v) {
      val expect = live.contains((s, d))
      engines.foreach(e => assert(e.hasEdge(s, d) == expect, s"${e.name} ($s,$d)"))
    }
  }

  test("empirical sampling of each engine matches its exact distribution") {
    val (v, edges) = smallWorld(5)
    factories.map(_._1).foreach { f =>
      val eng = f.build(v, edges)
      // pick the highest-degree vertex for a meaningful distribution
      val u = (0 until v).maxBy(eng.outDegree)
      val exp = eng.exactDistribution(u)
      StatCheck.assertMatches(exp, 60000, seed = 77, tol = 0.02)(r => eng.sampleNext(u, r))
    }
  }

  test("exactDistribution describes what sampleNext draws between updates and the rebuild") {
    val (v, edges) = smallWorld(8)
    factories.map(_._1).foreach { f =>
      val eng = f.build(v, edges)
      val u = (0 until v).maxBy(eng.outDegree)
      val heaviest = edges.filter(_.src == u).maxBy(_.bias).dst
      val fresh = (0 until v).find(d => d != u && !eng.hasEdge(u, d)).get
      // a heavy insert and a delete, with no postRoundSlice after them
      eng.applyVertexUpdates(u, Seq(Update(1L, true, u, fresh, 1000.0), Update(2L, false, u, heaviest, 0.0)))
      StatCheck.assertMatches(eng.exactDistribution(u), 60000, seed = 78, tol = 0.02)(r => eng.sampleNext(u, r))
    }
  }

  test("dead-end vertices sample -1 in all engines") {
    val edges = Vector(Edge(0, 1, 5.0)) // vertex 1 has no out-edges
    factories.map(_._1).foreach { f =>
      val eng = f.build(3, edges)
      assert(eng.sampleNext(1, new SplittableRandom(1)) == -1, eng.name)
      assert(eng.sampleNext(2, new SplittableRandom(1)) == -1, eng.name)
      assert(eng.sampleNext(0, new SplittableRandom(1)) == 1, eng.name)
    }
  }

  test("memory ordering: Bingo adaptive < Bingo baseline; FlowWalker smallest") {
    val (v, edges) = smallWorld(6)
    val ad = BingoEngine.factory().build(v, edges)
    val bs = BingoEngine.factory(adaptive = false).build(v, edges)
    val fw = FlowWalkerEngine.factory.build(v, edges)
    val gs = GSamplerEngine.factory.build(v, edges)
    assert(ad.memoryBytes < bs.memoryBytes)
    assert(fw.memoryBytes < gs.memoryBytes)
  }

  test("Adjacency: duplicate-edge delete removes earliest instance") {
    val a = new Adjacency
    a.insert(1, 2.0)
    a.insert(1, 5.0)
    assert(a.degree == 2)
    assert(a.delete(1))
    assert(a.degree == 1)
    assert(a.bias(0) === 5.0 +- 1e-12)
    assert(a.delete(1))
    assert(!a.delete(1))
  }

  test("GraphStore register/get/remove") {
    val eng = BingoEngine.factory().build(2, Vector(Edge(0, 1, 1.0)))
    GraphStore.register("t", eng)
    assert(GraphStore.get("t") eq eng)
    GraphStore.remove("t")
    intercept[IllegalArgumentException](GraphStore.get("t"))
  }
}
