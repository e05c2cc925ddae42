package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalactic.Tolerance
import scala.util.Random
import repro.{Oracle, SparkSpec}

/** Radix decomposition laws (paper Eq. 3–4), read off the live
  * [[BingoVertex]] groups, in-JVM and via Spark SQL cross-checked against
  * DuckDB's bitwise operators; the split of a float bias (§4.3); and §4.4's
  * rule for λ ([[LambdaRule]]).
  */
class RadixSpec extends AnyFunSuite with SparkSpec with Tolerance {

  /** A vertex with one neighbor per bias, dsts 0, 1, 2, … */
  private def vertexOf(biases: Seq[Long]): BingoVertex =
    Vertices.build(biases.zipWithIndex.map { case (w, i) => (i, w.toDouble) })

  /** W(p_k) = |G_k|·2^k of the live group `k` (Eq. 4). */
  private def groupWeight(v: BingoVertex, k: Int): Long = v.groupCountOf(k).toLong << k

  test("decompose recovers set bits (paper example: 5 = 2^0 + 2^2)") {
    assert(vertexOf(Seq(5L)).activeGroupBits == Seq(0, 2))
    assert(vertexOf(Seq(4L)).activeGroupBits == Seq(2))
    assert(vertexOf(Seq(3L)).activeGroupBits == Seq(0, 1))
    assert(vertexOf(Seq(1L)).activeGroupBits == Seq(0))
  }

  test("decompose rejects non-positive biases") {
    intercept[IllegalArgumentException](vertexOf(Seq(0L)))
    intercept[IllegalArgumentException](vertexOf(Seq(-3L)))
  }

  for (trial <- 0 until 25) {
    test(s"law Σ D(w) = w for random biases #$trial") {
      val rnd = new Random(42 + trial)
      val w = 1L + (rnd.nextLong() & ((1L << 50) - 1))
      val v = vertexOf(Seq(w))
      assert(v.activeGroupBits.map(1L << _).sum == w)
      assert(v.activeGroupBits.length == java.lang.Long.bitCount(w))
      assert(v.activeGroupBits.forall(v.groupCountOf(_) == 1))
    }
  }

  test("group weights match Eq. 4 on the running example {5,4,3}") {
    val v = vertexOf(Seq(5L, 4L, 3L))
    assert(groupWeight(v, 0) == 2L) // neighbors with bit 0: biases 5 and 3 -> 2 * 2^0
    assert(groupWeight(v, 1) == 2L) // bias 3 -> 1 * 2^1
    assert(groupWeight(v, 2) == 8L) // biases 5 and 4 -> 2 * 2^2
    assert((3 to BingoVertex.DecimalGroup).forall(groupWeight(v, _) == 0L))
  }

  test("group weights total equals bias sum (mass preservation)") {
    val rnd = new Random(7)
    val biases = Seq.fill(500)(1L + rnd.nextInt(100000).toLong)
    val v = vertexOf(biases)
    assert(v.activeGroupBits.map(groupWeight(v, _)).sum == biases.sum)
  }

  /** The (integer word, decimal) that `insert` stored for `w`. */
  private def inserted(w: Double): (Long, Double) = {
    val v = new BingoVertex
    v.insert(0, w)
    v.validate()
    (v.scaledIntBiasAt(0), v.decimalAt(0))
  }

  test("insert splits 5.54 into integer word 5 and decimal 0.54") {
    val (i, d) = inserted(5.54)
    assert(i == 5L)
    assert(d === 0.54 +- 1e-9)
  }

  test("insert rejects NaN, ∞, 1e19 and 2^63; stores nextDown(2^63) exactly") {
    Seq(Double.NaN, Double.PositiveInfinity, 1e19, math.pow(2, 63)).foreach { w =>
      intercept[IllegalArgumentException](new BingoVertex().insert(0, w))
    }
    // the largest double below 2^63 still converts exactly
    val below = math.nextDown(math.pow(2, 63))
    assert(inserted(below) == ((below.toLong, 0.0)))
    assert(below.toLong.toDouble == below && below.toLong < Long.MaxValue)
  }

  test("decimalMassFraction matches paper Fig. 7 example (1/16 at λ=10)") {
    // biases 0.554, 0.726, 0.320 scaled by 10 -> int parts 5,7,3; dec parts 0.54+0.26+0.20=1.0
    val f = LambdaRule.decimalMassFraction(Array(0.554, 0.726, 0.320), 10.0)
    assert(f === 1.0 / 16 +- 1e-9)
    assert(f < 1.0 / 3, "λ=10 must keep decimal mass below 1/d (O(1) sampling rule)")
  }

  test("chooseLambda enforces W_D/(W_I+W_D) < 1/d") {
    val rnd = new Random(9)
    val biases = Array.fill(50)(rnd.nextDouble() * 3 + 0.01)
    val lambda = LambdaRule.chooseLambda(biases)
    assert(LambdaRule.decimalMassFraction(biases, lambda) < 1.0 / biases.length)
  }

  test("chooseLambda is 1 for already-integer biases") {
    assert(LambdaRule.chooseLambda(Array(5.0, 4.0, 3.0)) == 1.0)
  }

  test("chooseLambda stops at the largest power of 10 keeping λ·max(w) < 2^63") {
    val twoPow63 = math.pow(2, 63)
    // the decimal mass stays above 1/d at every λ a Double can hold
    Seq(Array(Double.MinPositiveValue), Array(1e-320, 3e-321, 2e-320)).foreach { biases =>
      val lambda = LambdaRule.chooseLambda(biases, cap = Double.PositiveInfinity)
      assert(biases.max * lambda < twoPow63, s"λ = $lambda")
      assert(!(biases.max * (lambda * 10.0) < twoPow63), s"λ = $lambda is not the largest")
      biases.zipWithIndex.foreach { case (w, i) => new BingoVertex().insert(i, w * lambda) } // usable
    }
    // an uncapped search that meets the mass target is unchanged by the bound
    val biases = Array(0.25, 0.5, 1.75)
    assert(LambdaRule.chooseLambda(biases, cap = Double.PositiveInfinity) == LambdaRule.chooseLambda(biases))
  }

  test("Spark group weights W(p_k) match DuckDB bitwise SQL (Eq. 4)") {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val rnd = new Random(21)
    val biases = Seq.fill(300)(1L + rnd.nextInt(500).toLong)
    val df = biases.toDF("bias")
    // Spark side: per-bit group weights via bitwise AND + aggregation
    val sparkGw = df
      .select(explode(array((0 until 9).map(b => lit(b)): _*)).as("k"), col("bias"))
      .withColumn("contrib", col("bias").bitwiseAND(pow(lit(2.0), col("k")).cast("long")))
      .where(col("contrib") =!= 0)
      .groupBy("k")
      .agg(sum("contrib").as("w"))
    Oracle.assertEquivalent(
      sparkGw,
      """
        |SELECT k, SUM(CAST(bias AS BIGINT) & (1 << k)) AS w
        |FROM biases CROSS JOIN (SELECT UNNEST(range(9)) AS k)
        |WHERE (CAST(bias AS BIGINT) & (1 << k)) <> 0
        |GROUP BY k
        |""".stripMargin,
      "biases" -> df,
    )
    // and both match the groups of a vertex built over the same biases
    val v = vertexOf(biases)
    val rows = sparkGw.collect().map(r => r.getAs[Int]("k") -> r.getAs[Long]("w")).toMap
    assert(v.activeGroupBits.forall(_ < 9))
    (0 until 9).foreach(b => assert(rows.getOrElse(b, 0L) == groupWeight(v, b), s"bit $b"))
  }
}
