package repro.engine

import java.lang.reflect.Modifier
import org.apache.spark.util.SizeEstimator
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{Batch, BingoVertex, GroupType}
import repro.graph.GraphGen

/** The hand-written `memoryBytes` models against Spark's `SizeEstimator`,
  * which walks the live object graph: both must count the same objects,
  * arrays, headers and references — per vertex, and per engine on the
  * -lite graphs, where small vertices make the fixed costs count.
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
    test(s"BingoVertex memoryBytes within ±25% of SizeEstimator at d = $d") {
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
    }
  }

  /** SizeEstimator of `roots` taken together, without its sampling: it
    * measures only 200 elements of an object array of 400 or more and scales
    * the smaller half up, which misses the hubs of a skewed graph (on TW-lite
    * it reads KnightKing's state 23% low). So each such array is measured as
    * chunks of 399 elements, which it walks in full.
    */
  private def exactSize(roots: Seq[AnyRef]): Long =
    SizeEstimator.estimate(roots.flatMap {
      case a: Array[AnyRef] => a.grouped(399).toSeq
      case x => Seq(x)
    }.toArray)

  /** Engine-resident state: Bingo's `vertices`; a baseline's fields but its
    * uncharged harness-side `adj`.
    */
  private def resident(e: WalkEngine): Seq[AnyRef] = e match {
    case b: BingoEngine => Seq(b.vertices)
    case r: RebuildEngine =>
      Iterator
        .iterate[Class[_]](r.getClass)(_.getSuperclass)
        .takeWhile(_ != classOf[Object])
        .flatMap(_.getDeclaredFields)
        .filter(f => !Modifier.isStatic(f.getModifiers) && !f.getType.isPrimitive && f.getName != "adj")
        .map { f => f.setAccessible(true); f.get(r) }
        .toSeq
  }

  for (spec <- Seq(GraphGen.LJ, GraphGen.TW)) {
    test(s"engine memoryBytes within ±25% of SizeEstimator on ${spec.abbr}-lite, all five engines") {
      val g = GraphGen.generate(spec)
      val factories = Seq(
        "Bingo adaptive" -> BingoEngine.factory(),
        "Bingo BS" -> BingoEngine.factory(adaptive = false),
        "KnightKing" -> KnightKingEngine.factory,
        "gSampler" -> GSamplerEngine.factory,
        "FlowWalker" -> FlowWalkerEngine.factory,
      )
      for ((tag, f) <- factories) {
        val e = f.build(g.numVertices, g.edges)
        assertClose(e.memoryBytes, exactSize(resident(e)), s"${spec.abbr}-lite $tag")
      }
    }
  }
}
