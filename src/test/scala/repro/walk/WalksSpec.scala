package repro.walk

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import org.scalactic.Tolerance
import org.apache.spark.sql.functions._
import scala.util.Random
import repro.{Oracle, SparkSpec, StatCheck}
import repro.engine._
import repro.eval.Bench
import repro.graph._

/** Random-walk applications: path validity, app-specific laws (node2vec
  * second-order distribution, PPR expected length), Spark fan-out, and the
  * DuckDB oracle on visit-count aggregation.
  */
class WalksSpec extends AnyFunSuite with SparkSpec with Tolerance {

  private def mkGraph(seed: Int, v: Int = 40, minDeg: Int = 3): (Int, Vector[Edge]) = {
    val rnd = new Random(seed)
    val edges = (for {
      s <- 0 until v
      d <- rnd.shuffle((0 until v).filter(_ != s).toList).take(minDeg + rnd.nextInt(4))
    } yield Edge(s, d, (1 + rnd.nextInt(20)).toDouble)).toVector
    (v, edges)
  }

  private def engines(v: Int, edges: Vector[Edge]): Seq[WalkEngine] =
    Seq(
      BingoEngine.factory().build(v, edges),
      KnightKingEngine.factory.build(v, edges),
      GSamplerEngine.factory.build(v, edges),
      FlowWalkerEngine.factory.build(v, edges),
    )

  // ---------------- path validity across engines and apps ----------------

  private val apps: Seq[Walks.WalkApp] = Seq(
    Walks.DeepWalk(20),
    Walks.Node2vec(20, 0.5, 2.0),
    Walks.Ppr(1.0 / 10, 100),
    Walks.SimpleSampling,
  )

  for (app <- apps) {
    test(s"${app.label}: every consecutive pair is a live edge (all engines)") {
      val (v, edges) = mkGraph(21)
      val edgeSet = edges.map(e => (e.src, e.dst)).toSet
      engines(v, edges).foreach { eng =>
        val rng = new SplittableRandom(5)
        (0 until 50).foreach { w =>
          val path = Walks.walkPath(eng, app, w % v, rng)
          assert(path.nonEmpty && path(0) == w % v)
          path.sliding(2).foreach {
            case Array(a, b) => assert(edgeSet.contains((a, b)), s"${eng.name}: ($a,$b) not an edge")
            case _ =>
          }
        }
      }
    }
  }

  test("DeepWalk: full-length paths when no dead ends") {
    val (v, edges) = mkGraph(22)
    val eng = BingoEngine.factory().build(v, edges)
    val rng = new SplittableRandom(6)
    (0 until 30).foreach { w =>
      assert(Walks.walkPath(eng, Walks.DeepWalk(15), w % v, rng).length == 15)
    }
  }

  test("DeepWalk: stops at dead ends") {
    val edges = Vector(Edge(0, 1, 1.0), Edge(1, 2, 1.0)) // 2 is a sink
    val eng = BingoEngine.factory().build(3, edges)
    val path = Walks.walkPath(eng, Walks.DeepWalk(10), 0, new SplittableRandom(7))
    assert(path.toSeq == Seq(0, 1, 2))
  }

  test("PPR: empirical mean walk length ≈ 1/stopProb") {
    val (v, edges) = mkGraph(23, v = 30, minDeg = 4)
    val eng = BingoEngine.factory().build(v, edges)
    val rng = new SplittableRandom(8)
    val stop = 1.0 / 20
    val lens = (0 until 8000).map(w => Walks.walkPath(eng, Walks.Ppr(stop, 4000), w % v, rng).length)
    val mean = lens.sum.toDouble / lens.length
    // expected path length (vertices) = 1 + E[steps] = 1 + (1-p)/p ≈ 1/p
    assert(mean === 20.0 +- 1.5, s"mean=$mean")
  }

  test("PPR: maxLength caps runaway walks") {
    val (v, edges) = mkGraph(24)
    val eng = BingoEngine.factory().build(v, edges)
    val path = Walks.walkPath(eng, Walks.Ppr(1e-9, 50), 0, new SplittableRandom(9))
    assert(path.length == 50)
  }

  test("SimpleSampling emits exactly one hop") {
    val (v, edges) = mkGraph(25)
    val eng = BingoEngine.factory().build(v, edges)
    val path = Walks.walkPath(eng, Walks.SimpleSampling, 3, new SplittableRandom(10))
    assert(path.length == 2 && path(0) == 3)
  }

  // ---------------- node2vec second-order correctness ----------------

  test("node2vec: one-step distribution matches Eq. 1 (brute force)") {
    // fixed triangle-ish graph where distances 0/1/2 all occur
    val edges = Vector(
      Edge(0, 1, 2.0), Edge(0, 2, 3.0),
      Edge(1, 0, 1.0), Edge(1, 2, 4.0), Edge(1, 3, 5.0),
      Edge(2, 0, 1.0), Edge(2, 3, 2.0),
      Edge(3, 1, 1.0),
    )
    val v = 4
    val p = 0.5
    val q = 2.0
    val eng = BingoEngine.factory().build(v, edges)
    // walker sits at u=1 having come from w=0; candidates: 0 (dist 0), 2 (dist 1: edge 0->2), 3 (dist 2)
    val w = 0
    val u = 1
    val base = Map(0 -> 1.0, 2 -> 4.0, 3 -> 5.0)
    val factor = Map(0 -> 1.0 / p, 2 -> 1.0, 3 -> 1.0 / q)
    val unnorm = base.map { case (d, b) => d -> b * factor(d) }
    val exp = unnorm.view.mapValues(_ / unnorm.values.sum).toMap
    // drive the rejection loop exactly as walkPath does
    val maxF = math.max(1.0, math.max(1.0 / p, 1.0 / q))
    StatCheck.assertMatches(exp, 200000, seed = 91, tol = 0.01) { rng =>
      var res = -1
      while (res < 0) {
        val cand = eng.sampleNext(u, rng)
        val f =
          if (cand == w) 1.0 / p
          else if (eng.hasEdge(w, cand)) 1.0
          else 1.0 / q
        if (rng.nextDouble() * maxF < f) res = cand
      }
      res
    }
  }

  test("node2vec full paths: empirical second-hop distribution matches Eq. 1") {
    val edges = Vector(
      Edge(0, 1, 2.0), Edge(0, 2, 3.0),
      Edge(1, 0, 1.0), Edge(1, 2, 4.0), Edge(1, 3, 5.0),
      Edge(2, 0, 1.0), Edge(2, 3, 2.0),
      Edge(3, 1, 1.0),
    )
    val eng = BingoEngine.factory().build(4, edges)
    val p = 0.5
    val q = 2.0
    // start at 0; condition on first hop = 1, measure second hop
    val rng = new SplittableRandom(92)
    val counts = scala.collection.mutable.Map[Int, Long]().withDefaultValue(0L)
    var n = 0L
    (0 until 300000).foreach { _ =>
      val path = Walks.walkPath(eng, Walks.Node2vec(3, p, q), 0, rng)
      if (path.length == 3 && path(1) == 1) { counts(path(2)) += 1; n += 1 }
    }
    val base = Map(0 -> 1.0 * (1 / p), 2 -> 4.0 * 1.0, 3 -> 5.0 * (1 / q))
    val exp = base.view.mapValues(_ / base.values.sum).toMap
    val tv = StatCheck.tvDistance(exp, counts.toMap, n)
    assert(tv < 0.01, s"TV=$tv, n=$n, counts=$counts")
  }

  test("node2vec: p=q=1 reduces to first-order DeepWalk distribution") {
    val (v, edges) = mkGraph(26)
    val eng = BingoEngine.factory().build(v, edges)
    val u = (0 until v).maxBy(eng.outDegree)
    val exp = eng.exactDistribution(u)
    // with p=q=1 the rejection factor is constant -> plain biased sampling
    val rng = new SplittableRandom(93)
    val counts = scala.collection.mutable.Map[Int, Long]().withDefaultValue(0L)
    (0 until 60000).foreach { _ =>
      val path = Walks.walkPath(eng, Walks.Node2vec(3, 1.0, 1.0), u, rng)
      if (path.length >= 2) counts(path(1)) += 1
    }
    val tv = StatCheck.tvDistance(exp, counts.toMap, counts.values.sum)
    assert(tv < 0.02, s"TV=$tv")
  }

  /** `eng` as it is, counting its [[WalkEngine.hasEdge]] calls. */
  private final class CountingEngine(eng: WalkEngine) extends WalkEngine {
    var hasEdgeCalls = 0L
    def name: String = eng.name
    def numVertices: Int = eng.numVertices
    def outDegree(v: Int): Int = eng.outDegree(v)
    def hasEdge(u: Int, v: Int): Boolean = { hasEdgeCalls += 1; eng.hasEdge(u, v) }
    def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = eng.applyVertexUpdates(src, updates)
    def postRoundSlice(slice: Int, stride: Int): Unit = eng.postRoundSlice(slice, stride)
    def sampleNext(u: Int, rng: SplittableRandom): Int = eng.sampleNext(u, rng)
    def memoryBytes: Long = eng.memoryBytes
    def exactDistribution(u: Int): Map[Int, Double] = eng.exactDistribution(u)
  }

  /** A node2vec path by the rule that asks [[WalkEngine.hasEdge]] for every
    * candidate but the previous vertex, and how many times it asked.
    */
  private def askingPath(eng: WalkEngine, app: Walks.Node2vec, start: Int, rng: SplittableRandom): (Seq[Int], Long) = {
    val maxF = math.max(1.0, math.max(1.0 / app.p, 1.0 / app.q))
    var calls = 0L
    def hop(prev: Int, cur: Int): Int = {
      var tries = 0
      while (tries < 10000) {
        val cand = eng.sampleNext(cur, rng)
        if (cand < 0) return -1
        val f = if (cand == prev) 1.0 / app.p else { calls += 1; if (eng.hasEdge(prev, cand)) 1.0 else 1.0 / app.q }
        if (rng.nextDouble() * maxF < f) return cand
        tries += 1
      }
      -1
    }
    val path = scala.collection.mutable.ArrayBuffer(start)
    var nxt = start
    while (nxt >= 0 && path.length < app.length) {
      nxt = if (path.length > 1) hop(path(path.length - 2), path.last) else eng.sampleNext(path.last, rng)
      if (nxt >= 0) path += nxt
    }
    (path.toSeq, calls)
  }

  test("node2vec: hasEdge only for a dart between 1 and 1/q; the paths of the rule that always asks") {
    val (v, edges) = mkGraph(27, v = 30, minDeg = 5)
    for (base <- Seq(BingoEngine.factory().build(v, edges), KnightKingEngine.factory.build(v, edges));
         (p, q) <- Seq((0.5, 2.0), (2.0, 0.5), (0.25, 4.0), (1.0, 1.0))) {
      val app = Walks.Node2vec(30, p, q)
      val eng = new CountingEngine(base)
      var asked = 0L
      (0 until 200).foreach { w =>
        val (want, calls) = askingPath(base, app, w % v, Walks.walkerRng(7, w))
        asked += calls
        assert(Walks.walkPath(eng, app, w % v, Walks.walkerRng(7, w)).toSeq == want, s"${base.name} p=$p q=$q walker $w")
      }
      val ctx = s"${base.name} p=$p q=$q: ${eng.hasEdgeCalls} hasEdge calls against $asked"
      if (q == 1.0) assert(eng.hasEdgeCalls == 0 && asked > 0, ctx)
      else assert(eng.hasEdgeCalls > 0 && eng.hasEdgeCalls < asked, ctx)
      info(ctx)
    }
  }

  // ---------------- parameter validation ----------------

  private val invalidApps: Seq[(String, () => Walks.WalkApp)] = Seq(
    "DeepWalk length 0" -> (() => Walks.DeepWalk(0)),
    "node2vec length 0" -> (() => Walks.Node2vec(0)),
    "node2vec p = 0" -> (() => Walks.Node2vec(20, 0.0, 2.0)),
    "node2vec p < 0" -> (() => Walks.Node2vec(20, -0.5, 2.0)),
    "node2vec p = NaN" -> (() => Walks.Node2vec(20, Double.NaN, 2.0)),
    "node2vec p = +Inf" -> (() => Walks.Node2vec(20, Double.PositiveInfinity, 2.0)),
    "node2vec q = 0" -> (() => Walks.Node2vec(20, 0.5, 0.0)),
    "node2vec q = NaN" -> (() => Walks.Node2vec(20, 0.5, Double.NaN)),
    "node2vec q = +Inf" -> (() => Walks.Node2vec(20, 0.5, Double.PositiveInfinity)),
    "PPR stop probability < 0" -> (() => Walks.Ppr(-0.1, 400)),
    "PPR stop probability > 1" -> (() => Walks.Ppr(1.5, 400)),
    "PPR stop probability NaN" -> (() => Walks.Ppr(Double.NaN, 400)),
    "PPR maxLength 0" -> (() => Walks.Ppr(1.0 / 80, 0)),
  )
  for ((what, make) <- invalidApps) {
    test(s"rejected at construction: $what") {
      intercept[IllegalArgumentException](make())
    }
  }

  test("boundary walk parameters are accepted and walk") {
    val eng = BingoEngine.factory().build(2, Vector(Edge(0, 1, 1.0), Edge(1, 0, 1.0)))
    val rng = new SplittableRandom(3)
    assert(Walks.walkPath(eng, Walks.DeepWalk(1), 0, rng).toSeq == Seq(0))
    assert(Walks.walkPath(eng, Walks.Node2vec(1, 1e-3, 1e3), 0, rng).toSeq == Seq(0))
    assert(Walks.walkPath(eng, Walks.Ppr(1.0, 400), 0, rng).toSeq == Seq(0))
    assert(Walks.walkPath(eng, Walks.Ppr(0.0, 5), 0, rng).toSeq == Seq(0, 1, 0, 1, 0))
    assert(Walks.walkPath(eng, Walks.Ppr(0.0, 1), 0, rng).toSeq == Seq(0))
  }

  test("node2vec gives up after 10,000 rejected tries and ends the walk there") {
    // on the 2-cycle the only second-order candidate is the previous vertex,
    // accepted w.p. (1/p)/max(1, 1/p, 1/q) = 1e-6 per try
    val eng = BingoEngine.factory().build(2, Vector(Edge(0, 1, 1.0), Edge(1, 0, 1.0)))
    (0 until 20).foreach { seed =>
      val path = Walks.walkPath(eng, Walks.Node2vec(5, 1e3, 1e-3), 0, Walks.walkerRng(seed, 0))
      assert(path.toSeq == Seq(0, 1), s"seed $seed")
    }
  }

  // ---------------- Spark fan-out + relational aggregation ----------------

  test("Spark paths: deterministic, correct shape, valid edges") {
    val (v, edges) = mkGraph(27)
    val eng = BingoEngine.factory().build(v, edges)
    GraphStore.register("walks-spec-1", eng)
    try {
      val df = WalkFrames.paths(spark, "walks-spec-1", Walks.DeepWalk(10), 64, seed = 3L).cache()
      val rows = df.collect()
      assert(rows.length == 64 * 10)
      val df2 = WalkFrames.paths(spark, "walks-spec-1", Walks.DeepWalk(10), 64, seed = 3L)
      assert(df2.collect().sortBy(r => (r.getLong(0), r.getInt(1))).toSeq ==
        rows.sortBy(r => (r.getLong(0), r.getInt(1))).toSeq)
      // per-walker positions are 0..9
      val edgeSet = edges.map(e => (e.src, e.dst)).toSet
      rows.groupBy(_.getLong(0)).foreach { case (wid, rs) =>
        val path = rs.sortBy(_.getInt(1)).map(_.getInt(2))
        assert(path.head == (wid % v).toInt)
        path.sliding(2).foreach { pair => if (pair.length == 2) assert(edgeSet((pair(0), pair(1)))) }
      }
      df.unpersist()
    } finally GraphStore.remove("walks-spec-1")
  }

  test("runWalksSpark steps equal paths row count minus starts and the serial walks") {
    val (v, edges) = mkGraph(28)
    val eng = BingoEngine.factory().build(v, edges)
    GraphStore.register("walks-spec-2", eng)
    try {
      val (steps, _) = Bench.runWalksSpark(spark, "walks-spec-2", Walks.DeepWalk(12), 32, seed = 4L)
      val rows = WalkFrames.paths(spark, "walks-spec-2", Walks.DeepWalk(12), 32, seed = 4L).count()
      assert(steps == rows - 32)
      // a partitioning that drops or repeats walker ids changes the sum
      // (101 walkers do not split evenly across tasks; 3 leave some tasks
      // without a walker, 0 leave all of them)
      for {
        app <- Seq(Walks.DeepWalk(12), Walks.Ppr(1.0 / 10, 100), Walks.Node2vec(12, 0.5, 2.0))
        walkers <- Seq(101, 3, 0)
      } {
        val serial = (0L until walkers.toLong).map { wid =>
          Walks.walkPath(eng, app, (wid % v).toInt, Walks.walkerRng(4L, wid)).length - 1L
        }.sum
        assert(Bench.runWalksSpark(spark, "walks-spec-2", app, walkers, seed = 4L)._1 == serial, s"${app.label} $walkers")
      }
    } finally GraphStore.remove("walks-spec-2")
  }

  test("oracle: PPR visit counts via Spark groupBy match DuckDB") {
    val (v, edges) = mkGraph(29)
    val eng = BingoEngine.factory().build(v, edges)
    GraphStore.register("walks-spec-3", eng)
    try {
      val paths = WalkFrames.paths(spark, "walks-spec-3", Walks.Ppr(1.0 / 20, 200), 200, seed = 5L).cache()
      val visits = WalkFrames.visitCounts(paths).withColumnRenamed("visits", "cnt")
      Oracle.assertEquivalent(
        visits,
        "SELECT vertex, COUNT(*) AS cnt FROM paths GROUP BY vertex",
        "paths" -> paths,
      )
      paths.unpersist()
    } finally GraphStore.remove("walks-spec-3")
  }

  test("PPR visit frequency concentrates on high in-bias vertices") {
    val (v, edges) = mkGraph(30, v = 25, minDeg = 5)
    val eng = BingoEngine.factory().build(v, edges)
    GraphStore.register("walks-spec-4", eng)
    try {
      val paths = WalkFrames.paths(spark, "walks-spec-4", Walks.Ppr(1.0 / 40, 400), 500, seed = 6L)
      val visits = WalkFrames.visitCounts(paths).collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
      assert(visits.values.sum > 500L) // walked at least a bit
      assert(visits.keySet.subsetOf((0 until v).toSet))
    } finally GraphStore.remove("walks-spec-4")
  }
}
