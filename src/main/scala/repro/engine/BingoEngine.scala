package repro.engine

import java.util.SplittableRandom
import repro.core.{BingoVertex, ConversionStats, Heap}
import repro.graph.{Edge, Update}

/** BINGO — the paper's system. One [[repro.core.BingoVertex]] radix-
  * factorized sampler per vertex; updates are incremental (O(K) per edge)
  * and there is *no* per-round global rebuild: each touched vertex applies
  * its updates as one batch (batched_insert/batched_delete, §5.2) and then
  * refills only its ≤K-entry prefix sums of group weights.
  *
  * @param adaptive   adaptive group representation (§5.1) vs BaSeline
  */
final class BingoEngine private (val numVertices: Int, val adaptive: Boolean) extends WalkEngine {
  val conversions: ConversionStats = new ConversionStats

  /** One sampler per vertex, created by the build slice that fills it. */
  val vertices: Array[BingoVertex] = new Array[BingoVertex](numVertices)

  def name: String = "Bingo"
  def outDegree(v: Int): Int = vertices(v).degree
  def hasEdge(u: Int, v: Int): Boolean = vertices(u).contains(v)

  private val ignored = new java.util.concurrent.atomic.LongAdder

  /** The vertex's run of `dst` / `bias` / `insert` columns as one batch. */
  def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = {
    val r = UpdateBatch.run(updates)
    val applied = vertices(src).applyBatch(r.batch.dst, r.batch.bias, r.batch.insert, r.from, r.until)
    val missed = r.deletes - applied
    if (missed > 0) ignored.add(missed)
  }

  /** Deletes of an edge the vertex did not hold, over every round so far. */
  def ignoredDeletes: Long = ignored.sum()

  /** No global rebuild — Bingo's point. */
  def postRoundSlice(slice: Int, stride: Int): Unit = ()

  def sampleNext(u: Int, rng: SplittableRandom): Int = vertices(u).sample(rng)

  def memoryBytes: Long = {
    var s = Heap.array(numVertices, Heap.Ref)
    var i = 0
    while (i < numVertices) { s += vertices(i).memoryBytes; i += 1 }
    s
  }

  def exactDistribution(u: Int): Map[Int, Double] = vertices(u).distribution

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
  /** Build from a snapshot: one insert batch per source vertex, applied
    * as one slice per processor.
    */
  def build(numVertices: Int, initial: Seq[Edge], adaptive: Boolean = true): BingoEngine =
    build(numVertices, initial, adaptive, UpdateBatch.buildSlices)

  /** The build in `slices` slices at once ([[UpdateBatch.build]]). */
  private[engine] def build(numVertices: Int, initial: Seq[Edge], adaptive: Boolean, slices: Int): BingoEngine = {
    val e = new BingoEngine(numVertices, adaptive)
    UpdateBatch.build(initial, numVertices, slices) { (s, b) =>
      var u = s
      while (u < numVertices) { e.vertices(u) = new BingoVertex(adaptive = adaptive, conversions = e.conversions); u += slices }
      b.foreachRun((v, from, until) => e.vertices(v).applyBatch(b.dst, b.bias, b.insert, from, until))
    }
    e
  }

  def factory(adaptive: Boolean = true): EngineFactory = new EngineFactory {
    def name: String = "Bingo"
    private[engine] def build(numVertices: Int, initial: Seq[Edge], slices: Int): WalkEngine =
      BingoEngine.build(numVertices, initial, adaptive, slices)
  }
}
