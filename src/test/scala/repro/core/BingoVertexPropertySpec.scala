package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.StatCheck
import repro.core.Vertices.structProbabilityOf

/** Randomised operation-sequence properties: after ANY interleaving of
  * streaming inserts/deletes (or batched rounds), the structure stays
  * internally consistent and Theorem 4.1 holds exactly.
  */
class BingoVertexPropertySpec extends AnyFunSuite {

  private def referenceDist(live: Seq[(Int, Double)]): Map[Int, Double] = {
    val tot = live.map(_._2).sum
    live.groupBy(_._1).view.mapValues(_.map(_._2).sum / tot).toMap
  }

  private def checkAgainstReference(v: BingoVertex, live: Seq[(Int, Double)]): Unit = {
    v.validate()
    assert(v.degree == live.length)
    val ref = referenceDist(live)
    ref.foreach { case (d, p) => StatCheck.assertProbEqual(structProbabilityOf(v, d), p, 1e-9) }
    // nothing else has probability
    val extraDsts = (0 until v.degree).map(v.dstAt).toSet -- ref.keySet
    assert(extraDsts.isEmpty)
  }

  /** Bias generators: integers in 1..maxBias, or [[wideBias]]. */
  private def uniformBias(maxBias: Int): Random => Double = rnd => (1 + rnd.nextInt(maxBias)).toDouble

  /** Bits across the whole radix range 0..62, a quarter of the biases with a
    * fraction: groups 0, 62 and the decimal group 63 are born and die inside
    * single batches.
    */
  private val wideBias: Random => Double = rnd =>
    rnd.nextInt(4) match {
      case 0 => rnd.nextInt(3) + (1 + rnd.nextDouble()) / 2 // decimal group, groups 0 and 1
      case 1 => math.pow(2, 62) // group 62
      case _ => math.pow(2, rnd.nextInt(63)) + rnd.nextInt(2) // one bit of 0..62, and bit 0 below 2^53
    }

  /** Seeds 0..11 alternate small and large integer biases; 12.. use [[wideBias]]. */
  private def biasOf(seed: Int): Random => Double =
    if (seed >= 12) wideBias else uniformBias(if (seed % 2 == 0) 63 else 4096)

  /** Drive one random streaming scenario and verify against a naive model. */
  private def runStreaming(seed: Int, adaptive: Boolean, nextBias: Random => Double): Unit = {
    val rnd = new Random(seed)
    val v = new BingoVertex(adaptive = adaptive, conversions = new ConversionStats)
    // naive model: list of live (dst, bias) instances in insertion order
    var live = Vector.empty[(Int, Double)]
    val ops = 300
    (0 until ops).foreach { _ =>
      if (live.isEmpty || rnd.nextDouble() < 0.6) {
        val dst = rnd.nextInt(40) // small space -> duplicates happen
        val bias = nextBias(rnd)
        v.insert(dst, bias)
        live :+= (dst, bias)
      } else {
        val dst = live(rnd.nextInt(live.length))._1
        assert(v.delete(dst))
        val i = live.indexWhere(_._1 == dst) // earliest instance
        live = live.patch(i, Nil, 1)
      }
      if (rnd.nextInt(10) == 0) checkAgainstReference(v, live)
    }
    checkAgainstReference(v, live)
  }

  /** Drive one random batched scenario (paper §5.2 semantics). */
  private def runBatched(seed: Int, adaptive: Boolean, nextBias: Random => Double): Unit = {
    val rnd = new Random(seed)
    val v = new BingoVertex(adaptive = adaptive, conversions = new ConversionStats)
    var live = Vector.empty[(Int, Double)]
    (0 until 12).foreach { _ =>
      val nIns = rnd.nextInt(30)
      val inserts = (0 until nIns).map(_ => (rnd.nextInt(40), nextBias(rnd)))
      // deletes may target pre-existing edges or edges inserted in this batch
      val afterIns = live ++ inserts
      val nDel = rnd.nextInt(math.min(afterIns.length + 1, 25))
      val delDsts = new Random(seed * 31 + nDel).shuffle(afterIns.map(_._1)).take(nDel)
      val applied = Batch(v, inserts, delDsts)
      assert(applied == nDel)
      // model: inserts appended, then deletes remove earliest instances
      var model = afterIns
      delDsts.foreach { d =>
        val i = model.indexWhere(_._1 == d)
        assert(i >= 0)
        model = model.patch(i, Nil, 1)
      }
      live = model
      checkAgainstReference(v, live)
    }
  }

  for (seed <- 0 until 16; adaptive <- Seq(true, false)) {
    test(s"streaming random ops seed=$seed adaptive=$adaptive") {
      runStreaming(9000 + seed, adaptive, biasOf(seed))
    }
  }

  for (seed <- 0 until 16; adaptive <- Seq(true, false)) {
    test(s"batched random rounds seed=$seed adaptive=$adaptive") {
      runBatched(8000 + seed, adaptive, biasOf(seed))
    }
  }

  for (seed <- 0 until 6) {
    test(s"streaming and batched converge to identical distributions seed=$seed") {
      val rnd = new Random(7000 + seed)
      val initial = (0 until 50).map(i => (i, (1 + rnd.nextInt(500)).toDouble))
      val inserts = (0 until 20).map(i => (50 + i, (1 + rnd.nextInt(500)).toDouble))
      val deletes = rnd.shuffle((0 until 50).toList).take(15)

      val vs = new BingoVertex(adaptive = true)
      initial.foreach { case (d, b) => vs.insert(d, b) }
      inserts.foreach { case (d, b) => vs.insert(d, b) }
      deletes.foreach(d => assert(vs.delete(d)))

      val vb = new BingoVertex(adaptive = true)
      Batch(vb, initial, Seq.empty)
      Batch(vb, inserts, deletes)

      vs.validate(); vb.validate()
      assert(vs.degree == vb.degree)
      val dsts = (0 until vs.degree).map(vs.dstAt).distinct
      dsts.foreach { d =>
        StatCheck.assertProbEqual(structProbabilityOf(vs, d), structProbabilityOf(vb, d), 1e-9)
      }
    }
  }
}
