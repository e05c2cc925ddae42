package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import org.scalactic.Tolerance
import scala.util.Random
import repro.StatCheck

/** Vose alias table: exact probabilities, degenerate shapes, sampling. */
class AliasTableSpec extends AnyFunSuite with Tolerance {

  private def exact(ws: Array[Double]): Array[Double] = {
    val t = ws.sum
    ws.map(_ / t)
  }

  test("single candidate always sampled") {
    val t = AliasTable(Array(3.0))
    val rng = new SplittableRandom(1)
    (1 to 100).foreach(_ => assert(t.sample(rng) == 0))
    assert(t.probabilityOf(0) === 1.0 +- 1e-12)
  }

  test("equal weights give uniform probabilities") {
    val t = AliasTable(Array.fill(7)(2.5))
    t.probabilities.foreach(p => assert(p === 1.0 / 7 +- 1e-12))
  }

  test("running-example inter-group weights (paper Fig. 4: groups 2,2,8)") {
    // vertex 2 biases {5,4,3} decompose into groups 2^0={1,5}, 2^1={5}, 2^2={1,4}
    val t = AliasTable(Array(2.0, 2.0, 8.0))
    assert(t.probabilityOf(0) === 2.0 / 12 +- 1e-12)
    assert(t.probabilityOf(1) === 2.0 / 12 +- 1e-12)
    assert(t.probabilityOf(2) === 8.0 / 12 +- 1e-12)
  }

  test("zero-weight entries get zero probability and are never sampled") {
    val t = AliasTable(Array(0.0, 1.0, 0.0, 3.0))
    assert(t.probabilityOf(0) === 0.0 +- 1e-12)
    assert(t.probabilityOf(2) === 0.0 +- 1e-12)
    assert(t.probabilityOf(1) === 0.25 +- 1e-12)
    assert(t.probabilityOf(3) === 0.75 +- 1e-12)
    val rng = new SplittableRandom(2)
    (1 to 2000).foreach { _ =>
      val s = t.sample(rng)
      assert(s == 1 || s == 3)
    }
  }

  test("probabilities sums to one and matches probabilityOf") {
    val ws = Array(5.0, 1.0, 9.0, 0.5, 0.0, 2.25)
    val t = AliasTable(ws)
    val ps = t.probabilities
    assert(ps.sum === 1.0 +- 1e-9)
    ps.indices.foreach(i => assert(ps(i) === t.probabilityOf(i) +- 1e-12))
  }

  test("rejects empty, negative, and all-zero inputs") {
    intercept[IllegalArgumentException](AliasTable(Array.empty[Double]))
    intercept[IllegalArgumentException](AliasTable(Array(1.0, -2.0)))
    intercept[IllegalArgumentException](AliasTable(Array(0.0, 0.0)))
  }

  test("empirical distribution matches weights (skewed)") {
    val ws = Array(100.0, 1.0, 10.0, 50.0)
    val t = AliasTable(ws)
    val exp = exact(ws).zipWithIndex.map { case (p, i) => i -> p }.toMap
    StatCheck.assertMatches(exp, 200000, seed = 3, tol = 0.01)(t.sample)
  }

  test("memory accounting is linear in size") {
    def bytes(n: Int): Long = AliasTable(Array.fill(n)(1.0)).memoryBytes
    // the object, then a Double and an Int per candidate in two arrays
    assert(bytes(10) == 24 + (16 + 80) + (16 + 40))
    assert(bytes(20) - bytes(10) == 10 * 12)
  }

  // property: exact probabilities equal normalised weights for random vectors
  for (trial <- 0 until 30) {
    test(s"random weight vector #$trial: exactness") {
      val rnd = new Random(1000 + trial)
      val n = 1 + rnd.nextInt(40)
      val ws = Array.fill(n)(rnd.nextInt(4) match {
        case 0 => rnd.nextDouble() * 1e-3
        case 1 => rnd.nextDouble() * 1e6
        case _ => 1.0 + rnd.nextInt(1000)
      })
      val t = AliasTable(ws)
      val exp = exact(ws)
      ws.indices.foreach(i => assert(t.probabilityOf(i) === exp(i) +- 1e-9))
      assert(t.probabilities.sum === 1.0 +- 1e-9)
    }
  }

  // bucket-shape regressions: every size 1..24 with geometric skew
  for (n <- 1 to 24) {
    test(s"exactness at size $n with geometric skew") {
      val ws = Array.tabulate(n)(i => math.pow(2.0, i % 11))
      val t = AliasTable(ws)
      val exp = exact(ws)
      ws.indices.foreach(i => assert(t.probabilityOf(i) === exp(i) +- 1e-9))
    }
  }
}
