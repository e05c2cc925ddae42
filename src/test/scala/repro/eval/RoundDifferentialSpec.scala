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
  * reference that keeps, per (src, dst), a queue of biases in `ts` order.
  * Like every engine (paper §5.2), the reference applies a round's inserts
  * first, then its deletes, each of which pops the earliest bias.
  *
  * The rounds list their updates out of `ts` order (with ties), insert
  * duplicate (src, dst) pairs with different biases (some with a decimal
  * part), insert and delete the same edge within a round, delete absent
  * edges, delete an absent edge that a later update of the round inserts,
  * and drain vertices to empty before later rounds refill them.
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

    /** Apply a round given in `ts` order: its inserts, then its deletes.
      * Returns the number of deletes that found no edge.
      */
    def applyRound(inTsOrder: Seq[Update]): Int = {
      val (inserts, deletes) = inTsOrder.partition(_.insert)
      inserts.foreach(u => live.getOrElseUpdate((u.src, u.dst), mutable.Queue()) += u.bias)
      deletes.count { u =>
        val q = live.getOrElseUpdate((u.src, u.dst), mutable.Queue())
        val found = q.nonEmpty
        if (found) q.dequeue()
        !found
      }
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
    var duplicateBiases, sameRoundInsertDelete, absentDeletes, insertAfterAbsentDelete, refills, unsortedRounds, ties = 0
  }

  private def bias(rnd: Random): Double =
    if (rnd.nextInt(4) == 0) rnd.nextInt(6) + 0.5 else (rnd.nextInt(30) + 1).toDouble

  /** One round of `size` updates starting at `ts0`, applied to `ref`.
    * Timestamps rise by 0 or 1 per update; the updates are generated in
    * `ts` order (ties in listed order), mostly deleting edges live at that
    * point, and listed shuffled unless `sorted`. Vertex `drain`, if any,
    * gets only deletes.
    */
  private def round(rnd: Random, ref: Reference, cov: Coverage, ts0: Long, size: Int, sorted: Boolean, drain: Int) = {
    val ts = (1 until size).scanLeft(ts0)((t, _) => t + rnd.nextInt(2)).toArray
    val listing = if (sorted) (0 until size).toArray else rnd.shuffle((0 until size).toVector).toArray
    val ups = new Array[Update](size)
    // live copies per (src, dst) as of the update being generated
    val live = mutable.Map[(Int, Int), Int]().withDefault(e => ref.biases(e._1, e._2).size)
    val absent = mutable.Set[(Int, Int)]() // deleted while absent earlier in the round
    val inserted = mutable.Set[(Int, Int)]()
    for (k <- listing.sortBy(ts(_))) {
      val u = if (drain >= 0 && rnd.nextBoolean()) drain else rnd.nextInt(n)
      val livesOf = (0 until n).filter(v => live((u, v)) > 0)
      val v = rnd.nextInt(n)
      val up =
        if (u != drain && rnd.nextDouble() < 0.5) Update(ts(k), insert = true, u, v, bias(rnd))
        else if (livesOf.nonEmpty && rnd.nextDouble() < 0.85) Update(ts(k), insert = false, u, livesOf(rnd.nextInt(livesOf.size)), 0.0)
        else Update(ts(k), insert = false, u, v, 0.0)
      val e = (up.src, up.dst)
      if (up.insert && ref.biases(up.src, up.dst).exists(_ != up.bias)) cov.duplicateBiases += 1
      if (up.insert && absent(e)) cov.insertAfterAbsentDelete += 1
      if (!up.insert && inserted(e)) cov.sameRoundInsertDelete += 1
      if (up.insert) { inserted += e; live(e) += 1 }
      else if (live(e) > 0) live(e) -= 1
      else absent += e
      ups(k) = up
    }
    cov.absentDeletes += ref.applyRound(listing.sortBy(ts(_)).toSeq.map(ups))
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
        s"absent deletes ${cov.absentDeletes}, insert after an absent delete ${cov.insertAfterAbsentDelete}, " +
        s"refills ${cov.refills}, unsorted rounds ${cov.unsortedRounds}, ties ${cov.ties}"
    )
    assert(cov.duplicateBiases > 0 && cov.sameRoundInsertDelete > 0 && cov.absentDeletes > 0)
    assert(cov.insertAfterAbsentDelete > 0)
    assert(cov.refills > 0 && cov.unsortedRounds > 0 && cov.ties > 0)
  }
}
