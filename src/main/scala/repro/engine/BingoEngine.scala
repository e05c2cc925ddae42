package repro.engine

import java.util.SplittableRandom
import repro.core.{BingoVertex, ConversionStats, Heap}
import repro.graph.{Edge, Update}

/** BINGO — the paper's system. One [[repro.core.BingoVertex]] radix-
  * factorized sampler per vertex; updates are incremental (O(K) per edge)
  * and there is *no* per-round global rebuild: each touched vertex applies
  * its updates as one batch (batched_insert/batched_delete, §5.2) and then
  * rebuilds only its ≤K-entry inter-group alias table.
  *
  * @param adaptive   adaptive group representation (§5.1) vs BaSeline
  */
final class BingoEngine(
    val numVertices: Int,
    val adaptive: Boolean = true,
    val conversions: ConversionStats = new ConversionStats,
) extends WalkEngine {

  val vertices: Array[BingoVertex] =
    Array.fill(numVertices)(new BingoVertex(adaptive = adaptive, conversions = conversions))

  def name: String = "Bingo"
  def outDegree(v: Int): Int = vertices(v).degree
  def hasEdge(u: Int, v: Int): Boolean = vertices(u).contains(v)

  /** The vertex's updates as `dst` / `bias` / `insert` columns, one batch. */
  def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = {
    val n = updates.length
    val dst = new Array[Int](n)
    val bias = new Array[Double](n)
    val insert = new Array[Boolean](n)
    var i = 0
    for (u <- updates) { dst(i) = u.dst; bias(i) = u.bias; insert(i) = u.insert; i += 1 }
    vertices(src).applyBatch(dst, bias, insert, 0, n)
  }

  /** No global rebuild — Bingo's point. */
  def postRoundSlice(slice: Int, stride: Int): Unit = ()

  def sampleNext(u: Int, rng: SplittableRandom): Int = vertices(u).sample(rng)

  def memoryBytes: Long = {
    var s = Heap.array(numVertices, Heap.Ref)
    var i = 0
    while (i < numVertices) { s += vertices(i).memoryBytes; i += 1 }
    s
  }

  def exactDistribution(u: Int): Map[Int, Double] = {
    val v = vertices(u)
    val dsts = (0 until v.degree).map(v.dstAt).distinct
    dsts.map(d => d -> v.structProbabilityOf(d)).toMap
  }

  /** How many groups of each adaptive type exist across all vertices
    * (context for Table 4 / the Fig. 11e group-ratio discussion).
    */
  def groupTypeCensus: Map[repro.core.GroupType, Long] = {
    val m = scala.collection.mutable.Map[repro.core.GroupType, Long]().withDefaultValue(0L)
    vertices.foreach { v =>
      v.activeGroupBits.foreach(k => v.groupTypeOf(k).foreach(t => m(t) += 1L))
    }
    m.toMap
  }
}

object BingoEngine {
  /** Build from a snapshot: one insert batch per source vertex. */
  def build(numVertices: Int, initial: Seq[Edge], adaptive: Boolean = true): BingoEngine = {
    val e = new BingoEngine(numVertices, adaptive)
    val b = UpdateBatch.snapshot(initial, numVertices)
    b.foreachRun((v, from, until) => e.vertices(v).applyBatch(b.dst, b.bias, b.insert, from, until))
    e
  }

  def factory(adaptive: Boolean = true): EngineFactory = new EngineFactory {
    def name: String = "Bingo"
    def build(numVertices: Int, initial: Seq[Edge]): WalkEngine =
      BingoEngine.build(numVertices, initial, adaptive)
  }
}
