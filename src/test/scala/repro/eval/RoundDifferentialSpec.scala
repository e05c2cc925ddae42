package repro.eval

import scala.collection.mutable
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, StatCheck}
import repro.engine._
import repro.graph.{Edge, Update}

/** Seeded differential test of whole update rounds. Every engine runs the
  * same random rounds through `applyRoundLocal` and through
  * `applyRoundSpark`, and after every round each copy is compared with a
  * reference that keeps, per (src, dst), a queue of biases in `ts` order,
  * where a delete pops the earliest.
  *
  * The rounds list their updates out of `ts` order (with ties), insert
  * duplicate (src, dst) pairs with different biases, insert and delete the
  * same edge within a round, delete absent edges, and drain vertices to
  * empty before later rounds refill them. One case is left out: an insert
  * after an ignored delete of the same absent edge in the same round. There
  * Bingo's per-vertex batch (all inserts, then all deletes, paper §5.2)
  * removes the edge, while the baselines, which replay a vertex's updates
  * in `ts` order, keep it.
  */
class RoundDifferentialSpec extends AnyFunSuite with SparkSpec {

  private val n = 10
  private val engines: Seq[(String, EngineFactory)] = Seq(
    "Bingo adaptive" -> BingoEngine.factory(),
    "Bingo BS" -> BingoEngine.factory(adaptive = false),
    "KnightKing" -> KnightKingEngine.factory,
    "gSampler" -> GSamplerEngine.factory,
    "FlowWalker" -> FlowWalkerEngine.factory,
  )

  /** Per (src, dst): the live biases, earliest first. */
  private final class Reference(initial: Seq[Edge]) {
    val live = mutable.Map[(Int, Int), mutable.Queue[Double]]()
    initial.foreach(e => live.getOrElseUpdate((e.src, e.dst), mutable.Queue()) += e.bias)

    /** Apply one update; false for a delete of an absent edge. */
    def apply(u: Update): Boolean = {
      val q = live.getOrElseUpdate((u.src, u.dst), mutable.Queue())
      if (u.insert) { q += u.bias; true }
      else if (q.isEmpty) false
      else { q.dequeue(); true }
    }
    def biases(u: Int, v: Int): Seq[Double] = live.get((u, v)).fold(Seq.empty[Double])(_.toSeq)
    def degree(u: Int): Int = (0 until n).map(biases(u, _).size).sum
    def distribution(u: Int): Map[Int, Double] = {
      val mass = (0 until n).map(v => v -> biases(u, v).sum).filter(_._2 > 0).toMap
      mass.map { case (v, w) => v -> w / mass.values.sum }
    }
  }

  /** What the generated rounds covered, so the test cannot silently stop covering it. */
  private final class Coverage {
    var duplicateBiases, sameRoundInsertDelete, absentDeletes, refills, unsortedRounds, ties = 0
  }

  private def bias(rnd: Random): Double =
    if (rnd.nextInt(4) == 0) rnd.nextInt(6) + 0.5 else (rnd.nextInt(30) + 1).toDouble

  /** One round of `size` updates starting at `ts0`. Timestamps rise by 0 or
    * 1 per update; the updates are generated in `ts` order (ties in listed
    * order) against `ref`, which they advance, and listed shuffled unless
    * `sorted`. Vertex `drain`, if any, gets only deletes.
    */
  private def round(rnd: Random, ref: Reference, cov: Coverage, ts0: Long, size: Int, sorted: Boolean, drain: Int) = {
    val ts = (1 until size).scanLeft(ts0)((t, _) => t + rnd.nextInt(2)).toArray
    val listing = if (sorted) (0 until size).toArray else rnd.shuffle((0 until size).toVector).toArray
    val ups = new Array[Update](size)
    val absent = mutable.Set[(Int, Int)]() // deleted while absent: no insert after that
    val inserted = mutable.Set[(Int, Int)]()
    for (k <- listing.sortBy(ts(_))) {
      val u = if (drain >= 0 && rnd.nextBoolean()) drain else rnd.nextInt(n)
      val livesOf = (0 until n).filter(ref.biases(u, _).nonEmpty)
      val v = rnd.nextInt(n)
      val up =
        if (u != drain && !absent((u, v)) && rnd.nextDouble() < 0.5) Update(ts(k), insert = true, u, v, bias(rnd))
        else if (livesOf.nonEmpty && rnd.nextDouble() < 0.85) Update(ts(k), insert = false, u, livesOf(rnd.nextInt(livesOf.size)), 0.0)
        else Update(ts(k), insert = false, u, v, 0.0)
      val before = ref.biases(up.src, up.dst)
      if (up.insert && before.exists(_ != up.bias)) cov.duplicateBiases += 1
      if (!up.insert && inserted((up.src, up.dst))) cov.sameRoundInsertDelete += 1
      if (up.insert) inserted += ((up.src, up.dst))
      if (!ref(up)) { absent += ((up.src, up.dst)); cov.absentDeletes += 1 }
      ups(k) = up
    }
    if (!sorted && !listing.sameElements(listing.sorted)) cov.unsortedRounds += 1
    cov.ties += ts.length - ts.distinct.length
    listing.toSeq.map(ups)
  }

  private def assertMatches(eng: WalkEngine, ref: Reference, ctx: String): Unit =
    for (u <- 0 until n) {
      assert(eng.outDegree(u) == ref.degree(u), s"$ctx: out-degree of $u")
      for (v <- 0 until n) assert(eng.hasEdge(u, v) == ref.biases(u, v).nonEmpty, s"$ctx: hasEdge($u, $v)")
      val (got, want) = (eng.exactDistribution(u), ref.distribution(u))
      assert(got.keySet == want.keySet, s"$ctx: vertex $u reaches ${got.keySet}, reference ${want.keySet}")
      want.foreach { case (v, p) => StatCheck.assertProbEqual(got(v), p, 1e-9) }
    }

  test("every engine, local and through Spark, matches a per-(src, dst) queue reference after every round") {
    val cov = new Coverage
    for (seed <- 1 to 3) {
      val rnd = new Random(seed)
      // duplicate (src, dst) pairs with different biases; some vertices empty
      val initial = for (u <- 0 until n; _ <- 0 until rnd.nextInt(7)) yield Edge(u, rnd.nextInt(n), bias(rnd))
      val ref = new Reference(initial)
      val local = engines.map { case (name, f) => name -> f.build(n, initial) }
      val viaSpark = engines.map { case (name, f) => name -> f.build(n, initial) }
      viaSpark.foreach { case (name, e) => GraphStore.register(s"diff-$name", e) }
      try {
        var ts = 0L
        var drained = Set.empty[Int]
        for (r <- 0 until 15) {
          val drain = if (r % 5 == 1) rnd.nextInt(n) else -1
          val batch = round(rnd, ref, cov, ts, 40, sorted = r % 4 == 0, drain)
          ts = batch.map(_.ts).max + 1
          local.foreach(_._2.applyRoundLocal(batch))
          viaSpark.foreach { case (name, _) => Bench.applyRoundSpark(spark, s"diff-$name", batch) }
          for ((name, e) <- local) assertMatches(e, ref, s"seed $seed round $r $name local")
          for ((name, e) <- viaSpark) assertMatches(e, ref, s"seed $seed round $r $name Spark")
          cov.refills += drained.count(ref.degree(_) > 0)
          drained = drained.filter(ref.degree(_) == 0) ++ (if (drain >= 0 && ref.degree(drain) == 0) Set(drain) else Nil)
        }
      } finally viaSpark.foreach { case (name, _) => GraphStore.remove(s"diff-$name") }
    }
    info(
      s"duplicate biases ${cov.duplicateBiases}, insert+delete in one round ${cov.sameRoundInsertDelete}, " +
        s"absent deletes ${cov.absentDeletes}, refills ${cov.refills}, " +
        s"unsorted rounds ${cov.unsortedRounds}, ties ${cov.ties}"
    )
    assert(cov.duplicateBiases > 0 && cov.sameRoundInsertDelete > 0 && cov.absentDeletes > 0)
    assert(cov.refills > 0 && cov.unsortedRounds > 0 && cov.ties > 0)
  }
}
