package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import org.scalactic.Tolerance
import scala.util.Random
import repro.StatCheck

/** ITS, rejection, and reservoir samplers (paper §2.3 + FlowWalker's
  * primitive): exact probabilities, update semantics, distributions.
  */
class ClassicSamplersSpec extends AnyFunSuite with Tolerance {

  private def itsSampler(ws: Seq[Double]): ItsSampler = { val s = new ItsSampler; ws.foreach(s.insert); s }
  private def rejectionSampler(ws: Seq[Double]): RejectionSampler = { val s = new RejectionSampler; ws.foreach(s.insert); s }

  // ---------------- ITS ----------------

  test("ITS: cdf after inserts matches prefix sums") {
    val s = itsSampler(Seq(5.0, 4.0, 3.0))
    assert(s.totalWeight === 12.0 +- 1e-12)
    assert(s.probabilityOf(0) === 5.0 / 12 +- 1e-12)
    assert(s.probabilityOf(2) === 3.0 / 12 +- 1e-12)
  }

  test("ITS: delete middle rebuilds the suffix") {
    val s = itsSampler(Seq(5.0, 4.0, 3.0, 2.0))
    s.delete(1)
    assert(s.size == 3)
    assert(s.totalWeight === 10.0 +- 1e-12)
    assert(s.probabilityOf(0) === 0.5 +- 1e-12)
    assert(s.probabilityOf(1) === 0.3 +- 1e-12)
    assert(s.probabilityOf(2) === 0.2 +- 1e-12)
    // a middle delete among six: every probability reads the refilled suffix
    val ws = Seq(5.0, 4.0, 3.0, 2.0, 1.0, 6.0)
    val t = itsSampler(ws)
    t.delete(2)
    val left = ws.patch(2, Nil, 1)
    left.indices.foreach(i => assert(t.probabilityOf(i) === left(i) / left.sum +- 1e-12, s"candidate $i"))
  }

  test("ITS: delete head and tail") {
    val s = itsSampler(Seq(1.0, 2.0, 3.0))
    s.delete(0)
    assert(s.totalWeight === 5.0 +- 1e-12)
    s.delete(1)
    assert(s.totalWeight === 2.0 +- 1e-12)
    assert(s.size == 1)
  }

  test("ITS: empirical distribution matches (paper Fig. 2c shape)") {
    val s = itsSampler(Seq(5.0, 4.0, 3.0))
    val exp = Map(0 -> 5.0 / 12, 1 -> 4.0 / 12, 2 -> 3.0 / 12)
    StatCheck.assertMatches(exp, 150000, seed = 11, tol = 0.01)(s.sample)
  }

  test("ITS: rejects non-positive weights and bad deletes") {
    val s = new ItsSampler
    intercept[IllegalArgumentException](s.insert(0.0))
    intercept[IllegalArgumentException](s.insert(-1.0))
    s.insert(1.0)
    intercept[IllegalArgumentException](s.delete(1))
    intercept[IllegalArgumentException](s.delete(-1))
  }

  test("ITS and rejection reject an infinite weight") {
    intercept[IllegalArgumentException](new ItsSampler().insert(Double.PositiveInfinity))
    intercept[IllegalArgumentException](new RejectionSampler().insert(Double.PositiveInfinity))
  }

  test("ITS: sampling an empty sampler fails") {
    intercept[IllegalArgumentException](new ItsSampler().sample(new SplittableRandom(1)))
  }

  // ---------------- Rejection ----------------

  test("rejection: max tracking through inserts and deletes") {
    val s = rejectionSampler(Seq(2.0, 9.0, 4.0))
    assert(s.maxWeight === 9.0 +- 1e-12)
    s.delete(1) // removes the max -> rescan
    assert(s.maxWeight === 4.0 +- 1e-12)
    s.insert(100.0)
    assert(s.maxWeight === 100.0 +- 1e-12)
  }

  test("rejection: empirical distribution matches") {
    val s = rejectionSampler(Seq(5.0, 4.0, 3.0))
    val exp = Map(0 -> 5.0 / 12, 1 -> 4.0 / 12, 2 -> 3.0 / 12)
    StatCheck.assertMatches(exp, 150000, seed = 12, tol = 0.01)(s.sample)
  }

  test("rejection: high skew still correct but with many rejections") {
    val s = rejectionSampler(Seq(1000.0) ++ Seq.fill(99)(1.0))
    val exp = (0 until 100).map(i => i -> (if (i == 0) 1000.0 else 1.0) / 1099.0).toMap
    StatCheck.assertMatches(exp, 100000, seed = 13, tol = 0.015)(s.sample)
    assert(s.rejections > 0L, "skewed weights must cause rejections")
  }

  test("rejection: uniform weights never reject") {
    val s = rejectionSampler(Seq.fill(10)(7.0))
    val rng = new SplittableRandom(14)
    (1 to 5000).foreach(_ => s.sample(rng))
    assert(s.rejections == 0L)
  }

  test("rejection: delete semantics shift indices") {
    val s = rejectionSampler(Seq(1.0, 2.0, 3.0))
    s.delete(0)
    assert(s.weightOf(0) === 2.0 +- 1e-12)
    assert(s.weightOf(1) === 3.0 +- 1e-12)
    assert(s.size == 2)
  }

  // ---------------- Reservoir (FlowWalker primitive) ----------------

  test("reservoir: exact draw over full range") {
    val ws = Array(5.0, 4.0, 3.0)
    val exp = Map(0 -> 5.0 / 12, 1 -> 4.0 / 12, 2 -> 3.0 / 12)
    val rng = new SplittableRandom(15)
    StatCheck.assertMatches(exp, 150000, seed = 15, tol = 0.01)(r => ReservoirSampler.sample(ws, 0, 3, r))
  }

  test("reservoir: respects sub-ranges") {
    val ws = Array(100.0, 1.0, 1.0, 100.0)
    val rng = new SplittableRandom(16)
    (1 to 2000).foreach { _ =>
      val i = ReservoirSampler.sample(ws, 1, 3, rng)
      assert(i == 1 || i == 2)
    }
  }

  test("reservoir: skips zero weights") {
    val ws = Array(0.0, 1.0, 0.0)
    val rng = new SplittableRandom(17)
    (1 to 500).foreach(_ => assert(ReservoirSampler.sample(ws, 0, 3, rng) == 1))
  }

  test("reservoir: empty range rejected") {
    intercept[IllegalArgumentException](ReservoirSampler.sample(Array(1.0), 1, 1, new SplittableRandom(1)))
  }

  // cross-sampler agreement on random weight vectors
  for (trial <- 0 until 12) {
    test(s"cross-sampler agreement, random vector #$trial") {
      val rnd = new Random(2000 + trial)
      val n = 2 + rnd.nextInt(20)
      val ws = Array.fill(n)(1.0 + rnd.nextInt(64))
      val exp = ws.zipWithIndex.map { case (w, i) => i -> w / ws.sum }.toMap
      val alias = AliasTable(ws)
      val its = itsSampler(ws.toSeq)
      val rej = rejectionSampler(ws.toSeq)
      StatCheck.assertMatches(exp, 60000, seed = 3000 + trial, tol = 0.02)(alias.sample)
      StatCheck.assertMatches(exp, 60000, seed = 4000 + trial, tol = 0.02)(its.sample)
      StatCheck.assertMatches(exp, 60000, seed = 5000 + trial, tol = 0.02)(rej.sample)
      StatCheck.assertMatches(exp, 60000, seed = 6000 + trial, tol = 0.02)(r => ReservoirSampler.sample(ws, 0, n, r))
    }
  }
}
