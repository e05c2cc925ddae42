package repro.engine

import java.util.SplittableRandom
import repro.graph.{Edge, Update}

/** Common contract of the four compared systems (paper §6.2).
  *
  * Round semantics follow the paper's evaluation workflow: each round first
  * applies `batchSize` updates, then runs the random-walk application. The
  * harness fans a round out as one Spark task per vertex slice (ownership
  * `v % stride == slice`, the 1-D partitioning of supplement §9.1). The
  * driver validates the round and groups it by vertex as one
  * [[UpdateBatch]] per slice; each task calls [[applyVertexUpdates]] for its
  * vertices' updates in timestamp order and then [[postRoundSlice]] for its
  * slice's per-round rebuild work (alias/CDF reconstruction for the
  * static-sampler baselines, graph reload for FlowWalker, nothing for
  * Bingo). Tasks own disjoint vertices, so no locking is needed — the
  * analogue of one GPU block per vertex.
  *
  * [[applyRoundLocal]] runs the same batch as one slice, single-threaded.
  * Sampling ([[sampleNext]]) is read-only and thread-safe between rounds.
  */
trait WalkEngine extends Serializable {
  def name: String
  def numVertices: Int
  def outDegree(v: Int): Int
  def hasEdge(u: Int, v: Int): Boolean

  /** Apply this vertex's updates (timestamp order). Thread-safe across
    * distinct `src`. A round hands each vertex an [[UpdateBatch.Run]], a view
    * of its slice batch's columns that the engines read directly.
    */
  def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit

  /** Per-round rebuild for vertices `v` with `v % stride == slice`.
    * Thread-safe across distinct slices.
    */
  def postRoundSlice(slice: Int, stride: Int): Unit

  /** One sampling step: next neighbor of `u`, or -1 on a dead end. */
  def sampleNext(u: Int, rng: SplittableRandom): Int

  /** Retained bytes of adjacency + sampling structures. */
  def memoryBytes: Long

  /** Exact next-hop distribution at `u`, derived from the live structures. */
  def exactDistribution(u: Int): Map[Int, Double]

  /** Single-threaded round: the Spark round's code with one slice. */
  def applyRoundLocal(updates: Seq[Update]): Unit = {
    UpdateBatch.split(updates, 1, numVertices)(0).applyTo(this)
    postRoundSlice(0, 1)
  }
}

/** Builds an engine from an initial snapshot (one per compared system).
  * A build is the first batch, every edge an insert, and runs as one slice
  * per processor with a round's ownership (`v % slices`), the slices at
  * once ([[UpdateBatch.build]]).
  */
trait EngineFactory extends Serializable {
  def name: String
  def build(numVertices: Int, initial: Seq[Edge]): WalkEngine = build(numVertices, initial, UpdateBatch.buildSlices)

  /** The build in `slices` slices; one slice is the one-thread build. */
  private[engine] def build(numVertices: Int, initial: Seq[Edge], slices: Int): WalkEngine
}

/** Executor-local registry so Spark tasks (local mode: same JVM) can reach
  * the mutable engine state — the stand-in for BINGO's GPU-resident graph
  * with 1-D partition ownership (supplement §9.1).
  */
object GraphStore {
  private val store = new java.util.concurrent.ConcurrentHashMap[String, WalkEngine]()
  def register(handle: String, engine: WalkEngine): Unit = store.put(handle, engine)
  def get(handle: String): WalkEngine = {
    val e = store.get(handle)
    require(e != null, s"no engine registered under '$handle'")
    e
  }
  def remove(handle: String): Unit = store.remove(handle)
}
