package repro.engine

import org.apache.spark.util.SizeEstimator
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{Batch, BingoVertex, GroupType}

/** The hand-written `memoryBytes` models against Spark's `SizeEstimator`,
  * which walks the live object graph: both must count the same arrays.
  */
class MemoryModelSpec extends AnyFunSuite {

  private def assertClose(model: Long, measured: Long, ctx: String): Unit = {
    val ratio = model.toDouble / measured
    info(f"$ctx: model $model B, SizeEstimator $measured B, ratio $ratio%.3f")
    assert(ratio >= 0.75 && ratio <= 1.25, f"$ctx: model $model B vs measured $measured B (ratio $ratio%.3f)")
  }

  /** `d` neighbors with some duplicate dsts and power-law integer biases
    * (many small, few large: dense low groups, sparse high ones).
    */
  private def neighbors(d: Int, rnd: Random): Seq[(Int, Double)] =
    Seq.fill(d)((rnd.nextInt(2 * d), math.max(1, (65536 * math.pow(rnd.nextDouble(), 8)).toInt).toDouble))

  test("BingoVertex fixed cost: an empty vertex retains ≤ 300 B, a one-neighbor vertex ≤ 560 B") {
    val empty = SizeEstimator.estimate(new BingoVertex)
    val one = SizeEstimator.estimate(BingoVertex.build(Seq(7 -> 5.0)))
    info(s"SizeEstimator: empty $empty B, one neighbor $one B")
    assert(empty <= 300, s"empty vertex retains $empty B")
    assert(one <= 560, s"one-neighbor vertex retains $one B")
  }

  for (d <- Seq(1024, 16384)) {
    test(s"BingoVertex and Adjacency memoryBytes within ±25% of SizeEstimator at d = $d") {
      val rnd = new Random(d)
      val nbrs = neighbors(d, rnd)
      val doomed = nbrs.take(d / 4).map(_._1) // deleted after the build: capacity > degree
      val fractional = nbrs.map { case (x, w) => (x, w + rnd.nextDouble()) }
      val cases = Seq(
        "Bingo adaptive" -> BingoVertex.build(nbrs),
        "Bingo BS" -> BingoVertex.build(nbrs, adaptive = false),
        "Bingo adaptive, float biases" -> BingoVertex.build(fractional),
      )
      val adaptive = cases.head._2
      assert(adaptive.activeGroupBits.exists(k => adaptive.groupTypeOf(k).contains(GroupType.Sparse)))
      cases.foreach { case (tag, v) =>
        assertClose(v.memoryBytes, SizeEstimator.estimate(v), s"$tag, built")
        Batch(v, Nil, doomed)
        v.validate()
        assertClose(v.memoryBytes, SizeEstimator.estimate(v), s"$tag, a quarter deleted")
      }
      val a = new Adjacency
      nbrs.foreach { case (x, w) => a.insert(x, w) }
      assertClose(a.memoryBytes, SizeEstimator.estimate(a), "Adjacency, built")
      doomed.foreach(a.delete)
      assertClose(a.deepCopy.memoryBytes, SizeEstimator.estimate(a.deepCopy), "Adjacency copy, a quarter deleted")
    }
  }
}
