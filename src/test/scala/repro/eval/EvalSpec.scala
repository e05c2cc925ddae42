package repro.eval

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.{Seconds, Span}
import repro.{SparkSpec, StatCheck}
import repro.engine._
import repro.graph._
import repro.walk.{WalkFrames, Walks}
import scala.jdk.CollectionConverters._

/** Harness-level integration tests: Spark-routed updates are equivalent to
  * local application, and the table runners produce sane output at tiny
  * scale (the full-scale runs live in bench/).
  */
class EvalSpec extends AnyFunSuite with SparkSpec {

  private val tinyParams = Bench.Params(batchSize = 50, rounds = 2, walkers = 64, walkLength = 10)

  /** Apply `rounds` to two engines per framework, one through
    * `applyRoundSpark` and one through `applyRoundLocal`; compare every
    * vertex's out-degree and the exact distributions at `checked`.
    */
  private def assertSparkMatchesLocal(
      n: Int,
      initial: Seq[Edge],
      rounds: Seq[Seq[Update]],
      checked: WalkEngine => Seq[Int],
  ): Seq[(WalkEngine, WalkEngine)] =
    Tables.frameworks.map { f =>
      val viaSpark = f.build(n, initial)
      val viaLocal = f.build(n, initial)
      GraphStore.register("eval-spec-eq", viaSpark)
      try {
        rounds.foreach { r =>
          Bench.applyRoundSpark(spark, "eval-spec-eq", r)
          viaLocal.applyRoundLocal(r)
        }
      } finally GraphStore.remove("eval-spec-eq")
      (0 until n).foreach(u => assert(viaSpark.outDegree(u) == viaLocal.outDegree(u), s"${f.name} vertex $u"))
      checked(viaLocal).foreach { u =>
        val a = viaSpark.exactDistribution(u)
        val b = viaLocal.exactDistribution(u)
        assert(a.keySet == b.keySet, s"${f.name} vertex $u")
        b.foreach { case (d, p) => StatCheck.assertProbEqual(a(d), p, 1e-9) }
      }
      (viaSpark, viaLocal)
    }

  test("applyRoundSpark ≡ applyRoundLocal for every engine") {
    val g = GraphGen.generate(GraphGen.AM)
    val plan = UpdateGen.plan(g.edges, UpdateMode.Mixed, 200, 2, 17L)
    // spot-check exact distributions on the 50 highest-degree vertices
    assertSparkMatchesLocal(g.numVertices, plan.initialEdges, plan.rounds, e =>
      (0 until g.numVertices).sortBy(-e.outDegree(_)).take(50))

    // A hand-built batch: only slices 0 and 1 receive updates, vertex `a`'s
    // updates are listed out of ts order, and (a, 3) is inserted, deleted
    // and re-inserted with a different bias.
    val p = spark.sparkContext.defaultParallelism
    val (a, b, c) = (0, 3 * p, p + 1)
    val initial = Seq(Edge(a, 1, 2.0), Edge(a, 2, 5.0), Edge(b, 1, 1.0), Edge(b, 3, 4.0), Edge(1, a, 1.0))
    val batch = Seq(
      Update(15, insert = true, a, 3, 7.0),
      Update(11, insert = true, a, 3, 3.0),
      Update(16, insert = true, b, 2, 9.0),
      Update(13, insert = false, a, 3, 0.0),
      Update(12, insert = true, c, 2, 6.0),
      Update(14, insert = false, b, 1, 0.0),
    )
    val engines = assertSparkMatchesLocal(3 * p + 1, initial, Seq(batch), _ => Seq(a, b, c, 1))
    // applied in ts order, the delete removes the bias-3 copy of (a, 3)
    val expected = Map(
      a -> Map(1 -> 2.0 / 14, 2 -> 5.0 / 14, 3 -> 7.0 / 14),
      b -> Map(3 -> 4.0 / 13, 2 -> 9.0 / 13),
      c -> Map(2 -> 1.0),
    )
    engines.foreach { case (viaSpark, _) =>
      expected.foreach { case (u, dist) =>
        val got = viaSpark.exactDistribution(u)
        assert(got.keySet == dist.keySet, s"${viaSpark.name} vertex $u: $got")
        dist.foreach { case (d, q) => StatCheck.assertProbEqual(got(d), q, 1e-9) }
      }
    }
  }

  test("after 3 Mixed rounds through applyRoundSpark, every engine samples its hubs by w/Σw over the live edges") {
    // a small skewed graph: hubs of degree 80, most vertices of degree 1-3; float biases
    val spec = GraphGen.DatasetSpec("SK", "Skewed-tiny", 400, 4000, 80, 2.0, 21L)
    val g = FloatBias.withFloatBias(GraphGen.generate(spec))
    val plan = UpdateGen.plan(g.edges, UpdateMode.Mixed, 300, 3, 23L)
    val live = Plans.edgeMultisetAfter(plan, 3).toSeq.flatMap { case ((s, d, w), c) => Seq.fill(c)(Edge(s, d, w)) }
    val hubs = live.groupBy(_.src).toSeq.sortBy { case (s, es) => (-es.size, s) }.take(3)
    val engines = Seq(
      "Bingo adaptive" -> BingoEngine.factory(),
      "Bingo BS" -> BingoEngine.factory(adaptive = false),
      "KnightKing" -> KnightKingEngine.factory,
      "gSampler" -> GSamplerEngine.factory,
      "FlowWalker" -> FlowWalkerEngine.factory,
    )
    for ((tag, f) <- engines) {
      val eng = f.build(g.numVertices, plan.initialEdges)
      GraphStore.register("eval-spec-exact", eng)
      try plan.rounds.foreach(r => Bench.applyRoundSpark(spark, "eval-spec-exact", r))
      finally GraphStore.remove("eval-spec-exact")
      for ((u, es) <- hubs) {
        val total = es.map(_.bias).sum
        val want = es.groupBy(_.dst).map { case (d, ds) => d -> ds.map(_.bias).sum / total }
        val got = eng.exactDistribution(u)
        assert(got.keySet == want.keySet, s"$tag vertex $u")
        want.foreach { case (d, p) => StatCheck.assertProbEqual(got(d), p, 1e-9) }
        StatCheck.assertMatches(got, 60000, seed = u.toLong, tol = 0.02)(r => eng.sampleNext(u, r))
      }
    }
  }

  test("ignored deletes are counted on the local and the Spark path, for Bingo and a baseline") {
    // vertex 0 holds (0 → 1) twice and (0 → 2) once; (0 → 3) is absent
    val initial = Seq(Edge(0, 1, 1.0), Edge(0, 1, 2.0), Edge(0, 2, 1.0), Edge(1, 0, 1.0))
    val round = Seq(
      Update(1, insert = false, 0, 3, 0.0), // absent: 1 ignored
      Update(2, insert = true, 0, 1, 4.0),
      Update(3, insert = false, 0, 1, 0.0), // (0 → 1) deleted 5 times, 3 instances: 2 ignored
      Update(4, insert = false, 0, 1, 0.0),
      Update(5, insert = false, 0, 1, 0.0),
      Update(6, insert = false, 0, 1, 0.0),
      Update(7, insert = false, 0, 1, 0.0),
      Update(8, insert = false, 1, 0, 0.0), // applied
      Update(9, insert = false, 1, 2, 0.0), // absent: 1 ignored
    )
    def ignored(e: WalkEngine): Long = e match {
      case b: BingoEngine => b.ignoredDeletes
      case r: RebuildEngine => r.ignoredDeletes
    }
    for (f <- Seq(BingoEngine.factory(), KnightKingEngine.factory)) {
      val local = f.build(4, initial)
      local.applyRoundLocal(round)
      assert(ignored(local) == 4L, f.name)
      local.applyRoundLocal(Seq(Update(10, insert = true, 2, 0, 1.0)))
      assert(ignored(local) == 4L, f.name)
      val viaSpark = f.build(4, initial)
      GraphStore.register("eval-spec-ignored", viaSpark)
      try Bench.applyRoundSpark(spark, "eval-spec-ignored", round)
      finally GraphStore.remove("eval-spec-ignored")
      assert(ignored(viaSpark) == 4L, f.name)
      assert((0 until 4).map(viaSpark.outDegree) == Seq(1, 0, 0, 0) && viaSpark.hasEdge(0, 2), f.name)
    }
  }

  test("applyRoundSpark rejects a negative src before running any task") {
    val eng = BingoEngine.factory().build(4, Seq(Edge(0, 1, 1.0)))
    GraphStore.register("eval-spec-neg", eng)
    try {
      val bad = Seq(Update(1, insert = true, 0, 2, 1.0), Update(2, insert = true, -1, 2, 1.0))
      val e = intercept[IllegalArgumentException](Bench.applyRoundSpark(spark, "eval-spec-neg", bad))
      assert(e.getMessage.contains("negative src") && e.getMessage.contains("-1"))
      assert(eng.outDegree(0) == 1) // the valid update in the batch was not applied either
      val local = intercept[IllegalArgumentException](eng.applyRoundLocal(bad))
      assert(local.getMessage == e.getMessage)
      assert(eng.outDegree(0) == 1)
    } finally GraphStore.remove("eval-spec-neg")
  }

  // Also checks every engine, applyRoundLocal (same exception and message)
  // and insert biases that are not positive and finite or reach 2^63 (which
  // Bingo's radix bias word cannot hold).
  test("applyRoundSpark rejects a negative dst and an out-of-range src or dst before running any task") {
    val ok = Update(1, insert = true, 0, 2, 1.0)
    val badBias = "has a bias that is not positive and finite"
    val bad = Seq(
      Update(2, insert = true, 0, -1, 1.0) -> "negative dst",
      Update(2, insert = true, 1, -7, 1.0) -> "negative dst",
      Update(2, insert = true, 4, 2, 1.0) -> "outside the engine's 4 vertices",
      Update(2, insert = false, 1, 4, 0.0) -> "outside the engine's 4 vertices",
    ) ++ Seq(0.0, -0.0, -3.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
      .map(w => Update(2, insert = true, 1, 3, w) -> badBias) ++
      Seq(1e19, math.pow(2, 63)).map(w => Update(2, insert = true, 0, 3, w) -> "has a bias of 2^63 or more")
    for (f <- Tables.frameworks) {
      val eng = f.build(4, Seq(Edge(0, 1, 1.0)))
      GraphStore.register("eval-spec-range", eng)
      try {
        bad.foreach { case (u, msg) =>
          val e = intercept[IllegalArgumentException](Bench.applyRoundSpark(spark, "eval-spec-range", Seq(ok, u)))
          assert(e.getMessage.contains(msg) && e.getMessage.contains(u.toString), s"${f.name}: ${e.getMessage}")
          val local = intercept[IllegalArgumentException](eng.applyRoundLocal(Seq(ok, u)))
          assert(local.getMessage == e.getMessage, f.name)
        }
        // no update in any rejected batch was applied, on either path
        assert((0 until 4).map(eng.outDegree) == Seq(1, 0, 0, 0), f.name)
        assert(eng.exactDistribution(0) == Map(1 -> 1.0), f.name)
        assert(!eng.hasEdge(0, 2) && !eng.hasEdge(0, 3) && !eng.hasEdge(1, 3), f.name)
        // a delete's bias is not read, so it is not checked
        eng.applyRoundLocal(Seq(Update(3, insert = false, 0, 1, Double.NaN)))
        assert(eng.outDegree(0) == 0, f.name)
      } finally GraphStore.remove("eval-spec-range")
    }
  }

  test("both round paths accept the bias range's ends, for every framework") {
    for (w <- EngineSpec.AcceptedBiases) {
      // vertex 0 gets the bias beside its 1.0, vertex 1 gets it alone
      val round = Seq(Update(1, insert = true, 0, 2, w), Update(2, insert = true, 1, 3, w))
      for ((viaSpark, viaLocal) <- assertSparkMatchesLocal(4, Seq(Edge(0, 1, 1.0)), Seq(round), _ => Seq(0, 1))) {
        for ((eng, path) <- Seq(viaSpark -> "Spark", viaLocal -> "local")) {
          val ctx = s"${eng.name} $path w=$w"
          assert((0 until 4).map(eng.outDegree) == Seq(2, 1, 0, 0), ctx)
          EngineSpec.assertDistribution(eng, 0, Map(1 -> 1.0, 2 -> w), ctx)
          EngineSpec.assertDistribution(eng, 1, Map(3 -> w), ctx)
        }
      }
    }
  }

  test("each round job runs one stage over one RDD") {
    val sc = spark.sparkContext
    val shapes = new ConcurrentLinkedQueue[(String, Seq[Int])]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(ps => Option(ps.getProperty("spark.jobGroup.id")))
          .filter(_.startsWith("eval-spec-shape"))
          .foreach(g => shapes.add(g -> e.stageInfos.map(_.rddInfos.size)))
    }
    val eng = BingoEngine.factory().build(8, Seq(Edge(0, 1, 1.0), Edge(1, 2, 2.0)))
    GraphStore.register("eval-spec-shape", eng)
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("eval-spec-shape-update", "update")
      Bench.applyRoundSpark(spark, "eval-spec-shape", Seq(Update(1, insert = true, 2, 3, 1.0)))
      sc.setJobGroup("eval-spec-shape-walk", "walk")
      Bench.runWalksSpark(spark, "eval-spec-shape", Walks.DeepWalk(4), 16, 1L)
      // WalkFrames.paths walks through the same fan-out; its DataFrame is built on the driver
      sc.setJobGroup("eval-spec-shape-paths", "paths")
      WalkFrames.paths(spark, "eval-spec-shape", Walks.DeepWalk(4), 16, 1L)
      eventually(timeout(Span(30, Seconds))) { assert(shapes.size == 3) }
      // one stage per job, and that stage holds exactly one RDD
      assert(
        shapes.asScala.toSeq == Seq(
          "eval-spec-shape-update" -> Seq(1),
          "eval-spec-shape-walk" -> Seq(1),
          "eval-spec-shape-paths" -> Seq(1),
        )
      )
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
      GraphStore.remove("eval-spec-shape")
    }
  }

  for (f <- Tables.frameworks) {
    test(s"runConfig smoke: ${f.name} on AM-lite/tiny params") {
      val g = GraphGen.generate(GraphGen.AM)
      val r = Bench.runConfig(spark, g, Walks.DeepWalk(10), UpdateMode.Mixed, f, tinyParams)
      assert(r.steps > 0)
      assert(r.memMB > 0)
      assert(r.updateSec >= 0 && r.walkSec >= 0)
      assert(r.framework == f.name)
    }
  }

  test("table1Rows: all samplers measured, positive costs") {
    val rows = Tables.table1Rows(degrees = Seq(64, 256), opCount = 50, sampleCount = 2000)
    assert(rows.size == 4 * 2)
    rows.foreach { r =>
      assert(r.insertNs > 0 && r.deleteNs > 0 && r.sampleNs > 0)
      assert(r.memBytes > 0)
    }
    assert(rows.map(_.method).distinct.size == 4)
  }

  test("scalingExponent: linear data has slope ~1, flat data ~0") {
    val lin = Seq((100, 100.0), (1000, 1000.0), (10000, 10000.0))
    assert(math.abs(Tables.scalingExponent(lin) - 1.0) < 0.01)
    val flat = Seq((100, 5.0), (1000, 5.0), (10000, 5.0))
    assert(math.abs(Tables.scalingExponent(flat)) < 0.01)
  }

  test("table2Rows via Spark matches driver-side stats") {
    val specs = Seq(GraphGen.AM)
    val row = Tables.table2Rows(spark, specs).head
    val g = GraphGen.generate(GraphGen.AM)
    assert(row.vertices == g.numVertices)
    assert(row.edges == g.edges.size)
    assert(row.maxDeg == g.edges.groupBy(_.src).map(_._2.size).max)
  }

  test("table3Format produces a row per app/mode/framework with speedups") {
    val g = GraphGen.generate(GraphGen.AM)
    val rows = for {
      fw <- Tables.frameworks
    } yield Bench.runConfig(spark, g, Walks.DeepWalk(8), UpdateMode.Insertion, fw, tinyParams)
    val out = Tables.table3Format(rows, Seq(GraphGen.AM))
    assert(out.contains("Bingo"))
    assert(out.contains("KnightKing"))
    assert(out.contains("gSampler"))
    assert(out.contains("FlowWalker"))
  }

  test("conversion stats on a real workload stay rare (Table 4 shape)") {
    val g = GraphGen.generate(GraphGen.AM)
    val plan = UpdateGen.plan(g.edges, UpdateMode.Mixed, 500, 4, 19L)
    val engine = BingoEngine.build(g.numVertices, plan.initialEdges)
    engine.conversions.reset()
    plan.rounds.foreach(engine.applyRoundLocal)
    val cs = engine.conversions
    assert(cs.totalTouches > 0)
    // conversions must be a small fraction of touches (paper: max 0.47%... we
    // allow a loose bound at this tiny scale)
    assert(cs.totalConversions < cs.totalTouches, s"${cs.totalConversions} vs ${cs.totalTouches}")
    val census = engine.groupTypeCensus
    assert(census.values.sum > 0)
  }

  test("walk workload scales with walkers and length") {
    val g = GraphGen.generate(GraphGen.AM)
    val eng = BingoEngine.factory().build(g.numVertices, g.edges)
    GraphStore.register("eval-spec-scale", eng)
    try {
      val (s1, _) = Bench.runWalksSpark(spark, "eval-spec-scale", Walks.DeepWalk(5), 32, 1L)
      val (s2, _) = Bench.runWalksSpark(spark, "eval-spec-scale", Walks.DeepWalk(10), 64, 1L)
      assert(s1 == 32 * 4)
      assert(s2 == 64 * 9)
    } finally GraphStore.remove("eval-spec-scale")
  }
}
