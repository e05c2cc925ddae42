package roundbench

import scala.util.Random
import repro.graph.{Edge, Update}

/** An endless Mixed update stream over a fixed edge universe.
  *
  * It keeps `repro.graph.UpdateGen`'s per-event rule: each event is an
  * insert or a delete with equal odds; a delete removes a random live edge
  * and an insert adds a random edge of the unused pool. Unlike `UpdateGen`,
  * deleted edges go back into the pool, so the stream never runs dry and a
  * run may last as many rounds as its time allows. The initial snapshot is
  * every edge except `poolSize` random ones. Every edge is live or in the
  * pool, never both, so the live graph stays a set and no delete ever
  * targets an absent edge. Deterministic in `seed`.
  */
final class UpdateStream(edges: IndexedSeq[Edge], poolSize: Int, seed: Long) {
  require(poolSize > 0 && poolSize < edges.length, s"pool $poolSize must be in (0, ${edges.length})")

  private val rnd = new Random(seed)
  private val shuffled: Array[Edge] = rnd.shuffle(edges).toArray
  private var live: Array[Edge] = shuffled.dropRight(poolSize)
  private var liveLen = live.length
  private var pool: Array[Edge] = shuffled.takeRight(poolSize)
  private var poolLen = poolSize
  private var ts = 0L

  /** The live edges before the first batch. */
  val initialEdges: Vector[Edge] = live.toVector

  /** The next `size` events, timestamps continuing across batches. */
  def nextBatch(size: Int): Vector[Update] = Vector.fill(size) {
    val insert = (rnd.nextBoolean() && poolLen > 0) || liveLen == 0
    val e =
      if (insert) {
        val e = takeRandom(pool, poolLen); poolLen -= 1
        live = put(live, liveLen, e); liveLen += 1
        e
      } else {
        val e = takeRandom(live, liveLen); liveLen -= 1
        pool = put(pool, poolLen, e); poolLen += 1
        e
      }
    ts += 1
    Update(ts - 1, insert, e.src, e.dst, e.bias)
  }

  /** Edges live after the batches drawn so far. */
  def liveEdges: Seq[Edge] = live.take(liveLen).toSeq

  /** Edges in the unused pool: each is absent from the live graph. */
  def poolEdges: Seq[Edge] = pool.take(poolLen).toSeq

  /** Swap-remove a random element of `a(0 until len)` and return it. */
  private def takeRandom(a: Array[Edge], len: Int): Edge = {
    val i = rnd.nextInt(len)
    val e = a(i)
    a(i) = a(len - 1)
    e
  }

  private def put(a: Array[Edge], len: Int, e: Edge): Array[Edge] = {
    val b = if (len < a.length) a else java.util.Arrays.copyOf(a, math.max(4, a.length * 2))
    b(len) = e
    b
  }
}
