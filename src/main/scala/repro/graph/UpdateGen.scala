package repro.graph

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The paper's dynamic-update workload protocol (§6.1 *Datasets*).
  *
  * Three steps: (i) randomly split the edge set into A (all but
  * `rounds·batchSize` edges) and B (`rounds·batchSize` edges); (ii) for each
  * event decide insert vs delete per the update mode; (iii) a delete removes
  * a random edge currently in A, an insert moves the next unused edge of B
  * into A. The initial graph is A; the stream is `rounds` batches of
  * `batchSize` events each.
  */
object UpdateGen {

  /** A full experiment workload: the initial snapshot plus update rounds. */
  final case class Plan(
      mode: UpdateMode,
      initialEdges: Vector[Edge],
      rounds: Vector[Vector[Update]],
  )

  /** Build a plan per the paper's 3-step protocol. Deterministic in `seed`. */
  def plan(
      edges: Vector[Edge],
      mode: UpdateMode,
      batchSize: Int,
      rounds: Int,
      seed: Long,
  ): Plan = {
    val totalOps = batchSize * rounds
    require(edges.length > 2 * totalOps, s"graph too small: ${edges.length} edges for $totalOps ops")
    val rnd = new Random(seed)
    val shuffled = rnd.shuffle(edges)
    val bPool = shuffled.takeRight(totalOps) // set B: insert candidates
    val aPool = new ArrayBuffer[Edge](shuffled.length)
    aPool ++= shuffled.dropRight(totalOps) // set A: live edges
    val initial = aPool.toVector

    var bNext = 0
    var ts = 0L
    val allRounds = Vector.tabulate(rounds) { _ =>
      Vector.fill(batchSize) {
        val doInsert = mode match {
          case UpdateMode.Insertion => true
          case UpdateMode.Deletion => false
          case UpdateMode.Mixed => rnd.nextBoolean() && bNext < bPool.length
        }
        val u =
          if (doInsert) {
            val e = bPool(bNext); bNext += 1
            aPool += e
            Update(ts, insert = true, e.src, e.dst, e.bias)
          } else {
            val i = rnd.nextInt(aPool.length)
            val e = aPool(i)
            aPool(i) = aPool(aPool.length - 1)
            aPool.remove(aPool.length - 1)
            Update(ts, insert = false, e.src, e.dst, e.bias)
          }
        ts += 1
        u
      }
    }
    Plan(mode, initial, allRounds)
  }
}
