package repro.engine

import java.util.SplittableRandom
import repro.core.Heap
import repro.graph.{Edge, Update}

/** Skeleton of the static-sampler baselines of paper §6.2. Those systems
  * support only static graphs, so — as the paper did for its evaluation
  * ("we reload or reconstruct the corresponding structure after each round
  * of updates") — updates go to a harness-side edge list (`adj`, the "new
  * graph" to reload from), and every round ends by *reloading the graph into
  * the engine* and rebuilding each vertex's sampling space from scratch:
  * O(E) per round regardless of batch size. The reloaded graph is a static
  * system's structure: per vertex, its neighbor dsts (`loadedDst`) and their
  * biases (`loadedBias`), in `adj`'s slot order and trimmed to the degree.
  *
  * A baseline supplies its per-vertex sampling structure: [[rebuild]],
  * [[sampleSlot]], [[slotProbabilities]] and [[samplerBytes]]. Walks sample
  * the reloaded graph, and so does [[exactDistribution]]. [[hasEdge]] (the
  * node2vec rejection test) and [[outDegree]] read the uncharged
  * harness-side `adj`, which holds the same edges between rounds.
  */
abstract class RebuildEngine(val numVertices: Int) extends WalkEngine {
  /** Harness-side bookkeeping edge list (the "new graph" to reload from). */
  val adj: Array[Adjacency] = Array.fill(numVertices)(new Adjacency)

  /** The engine-resident graph, reloaded each round: each vertex's dsts and biases. */
  protected val loadedDst = new Array[Array[Int]](numVertices)
  protected val loadedBias = new Array[Array[Double]](numVertices)

  /** Rebuild vertex `v`'s sampling structure over its freshly reloaded biases. */
  protected def rebuild(v: Int, bias: Array[Double]): Unit

  /** Draw a slot of vertex `u`'s reloaded neighbors, or -1 on a dead end. */
  protected def sampleSlot(u: Int, rng: SplittableRandom): Int

  /** Probability [[sampleSlot]] draws each slot of `u`'s reloaded neighbors with. */
  protected def slotProbabilities(u: Int): Array[Double]

  /** Retained bytes of vertex `v`'s sampling structure, its reference included. */
  protected def samplerBytes(v: Int): Long

  def outDegree(v: Int): Int = adj(v).degree
  def hasEdge(u: Int, v: Int): Boolean = adj(u).contains(v)

  private val ignored = new java.util.concurrent.atomic.LongAdder

  /** The run's inserts, then its deletes, as `BingoVertex.applyBatch` does (§5.2). */
  def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = {
    val r = UpdateBatch.run(updates)
    val b = r.batch
    val a = adj(src)
    var i = r.from
    while (i < r.until) { if (b.insert(i)) a.insert(b.dst(i), b.bias(i)); i += 1 }
    var misses = 0
    i = r.from
    while (i < r.until) { if (!b.insert(i) && !a.delete(b.dst(i))) misses += 1; i += 1 }
    if (misses > 0) ignored.add(misses)
  }

  /** Deletes of an edge the vertex did not hold, over every round so far. */
  def ignoredDeletes: Long = ignored.sum()

  /** The from-scratch per-round reconstruction of this slice's vertices. */
  def postRoundSlice(slice: Int, stride: Int): Unit = {
    var v = slice
    while (v < numVertices) {
      val a = adj(v)
      loadedDst(v) = a.dsts
      loadedBias(v) = java.util.Arrays.copyOf(a.bias, a.degree)
      rebuild(v, loadedBias(v))
      v += stride
    }
  }

  def sampleNext(u: Int, rng: SplittableRandom): Int = {
    val slot = sampleSlot(u, rng)
    if (slot < 0) -1 else loadedDst(u)(slot)
  }

  /** Engine-resident state only (reloaded graph + sampling structures); the
    * harness-side `adj` edge list is bookkeeping, like the paper's host-side
    * update stream, and is not charged to any system.
    */
  def memoryBytes: Long = {
    var s = 2 * Heap.array(numVertices, Heap.Ref)
    var v = 0
    while (v < numVertices) {
      if (loadedDst(v) != null) s += Heap.array(loadedDst(v).length, 4) + Heap.array(loadedBias(v).length, 8)
      s += samplerBytes(v)
      v += 1
    }
    s
  }

  /** Per-slot probabilities of the sampled structure, merged by the reloaded dsts. */
  def exactDistribution(u: Int): Map[Int, Double] = {
    val dst = loadedDst(u)
    if (dst.length == 0) return Map.empty
    val p = slotProbabilities(u)
    val m = scala.collection.mutable.Map[Int, Double]().withDefaultValue(0.0)
    var i = 0
    while (i < dst.length) { m(dst(i)) += p(i); i += 1 }
    m.toMap
  }
}

object RebuildEngine {
  /** Factory for a baseline: each slice inserts its part of the checked
    * snapshot into `adj` and then reloads its vertices, as a round does.
    */
  def factory(label: String, make: Int => RebuildEngine): EngineFactory = new EngineFactory {
    def name: String = label
    private[engine] def build(numVertices: Int, initial: Seq[Edge], slices: Int): WalkEngine = {
      val e = make(numVertices)
      UpdateBatch.build(initial, numVertices, slices) { (s, b) =>
        b.foreachRun((v, from, until) => e.adj(v).insertAll(b.dst, b.bias, from, until))
        e.postRoundSlice(s, slices)
      }
      e
    }
  }
}
