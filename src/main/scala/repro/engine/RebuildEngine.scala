package repro.engine

import java.util.SplittableRandom
import repro.graph.{Edge, Update}

/** Skeleton of the static-sampler baselines of paper §6.2. Those systems
  * support only static graphs, so — as the paper did for its evaluation
  * ("we reload or reconstruct the corresponding structure after each round
  * of updates") — updates go to a harness-side edge list (`adj`, the "new
  * graph" to reload from), and every round ends by *reloading the graph into
  * the engine* (`loaded`, neighbor lists plus the dst-lookup maps needed for
  * second-order rejection) and rebuilding each vertex's sampling space from
  * scratch: O(E) per round regardless of batch size.
  *
  * A baseline supplies its per-vertex sampling structure: [[rebuild]],
  * [[sampleSlot]], [[slotProbabilities]] and [[samplerBytes]]. Walks sample
  * `loaded`, and so does [[exactDistribution]].
  */
abstract class RebuildEngine(val numVertices: Int) extends WalkEngine {
  /** Harness-side bookkeeping edge list (the "new graph" to reload from). */
  val adj: Array[Adjacency] = Array.fill(numVertices)(new Adjacency)

  /** The engine-resident graph, reloaded each round. */
  protected val loaded = new Array[Adjacency](numVertices)

  /** Rebuild vertex `v`'s sampling structure over its freshly reloaded `a`. */
  protected def rebuild(v: Int, a: Adjacency): Unit

  /** Draw a slot of `loaded(u)`, or -1 on a dead end. */
  protected def sampleSlot(u: Int, rng: SplittableRandom): Int

  /** Probability [[sampleSlot]] draws each slot of `loaded(u)` with. */
  protected def slotProbabilities(u: Int): Array[Double]

  /** Retained bytes of vertex `v`'s sampling structure. */
  protected def samplerBytes(v: Int): Long

  def outDegree(v: Int): Int = adj(v).degree
  def hasEdge(u: Int, v: Int): Boolean = adj(u).contains(v)

  /** The run's inserts, then its deletes, as `BingoVertex.applyBatch` does (§5.2). */
  def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = {
    val a = adj(src)
    updates.foreach(u => if (u.insert) a.insert(u.dst, u.bias))
    updates.foreach(u => if (!u.insert) a.delete(u.dst))
  }

  /** The from-scratch per-round reconstruction of this slice's vertices. */
  def postRoundSlice(slice: Int, stride: Int): Unit = {
    var v = slice
    while (v < numVertices) {
      val a = adj(v).deepCopy
      loaded(v) = a
      rebuild(v, a)
      v += stride
    }
  }

  def sampleNext(u: Int, rng: SplittableRandom): Int = {
    val slot = sampleSlot(u, rng)
    if (slot < 0) -1 else loaded(u).dstAt(slot)
  }

  /** Engine-resident state only (reloaded graph + sampling structures); the
    * harness-side `adj` edge list is bookkeeping, like the paper's host-side
    * update stream, and is not charged to any system.
    */
  def memoryBytes: Long = {
    var s = 0L
    var v = 0
    while (v < numVertices) {
      if (loaded(v) != null) s += loaded(v).memoryBytes
      s += samplerBytes(v)
      v += 1
    }
    s
  }

  /** Per-slot probabilities of the sampled structure, merged by `loaded(u)`'s dsts. */
  def exactDistribution(u: Int): Map[Int, Double] = {
    val a = loaded(u)
    if (a.degree == 0) return Map.empty
    val p = slotProbabilities(u)
    val m = scala.collection.mutable.Map[Int, Double]().withDefaultValue(0.0)
    var i = 0
    while (i < a.degree) { m(a.dstAt(i)) += p(i); i += 1 }
    m.toMap
  }
}

object RebuildEngine {
  /** Factory for a baseline: insert the checked snapshot into `adj`, then one full reload. */
  def factory(label: String, make: Int => RebuildEngine): EngineFactory = new EngineFactory {
    def name: String = label
    def build(numVertices: Int, initial: Seq[Edge]): WalkEngine = {
      val e = make(numVertices)
      val b = UpdateBatch.snapshot(initial, numVertices)
      for (i <- 0 until b.size) e.adj(b.src(i)).insert(b.dst(i), b.bias(i))
      e.postRoundSlice(0, 1)
      e
    }
  }
}
