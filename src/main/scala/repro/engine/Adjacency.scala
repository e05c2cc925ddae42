package repro.engine

import repro.core.SlotStore

/** One vertex's neighbor list in the rebuild-per-round baselines: the
  * shared Hornet-style [[repro.core.SlotStore]] (supplement §9.1) plus one
  * raw `bias` column. Each vertex is touched by at most one thread at a time
  * (updates are routed by source vertex), so no locking is needed —
  * mirroring the GPU design where one block owns one vertex's update list.
  */
final class Adjacency extends SlotStore(2) {
  var bias: Array[Double] = new Array[Double](2)

  def insert(dst: Int, w: Double): Unit = {
    val slot = appendSlot(dst) // may grow `bias`, so read it after
    bias(slot) = w
  }

  /** Delete the earliest surviving instance of (v → dst); false if absent. */
  def delete(dst: Int): Boolean = {
    val slot = takeEarliest(dst)
    if (slot >= 0) compactSlots(Array(slot), 1)
    slot >= 0
  }

  /** A copy of the dst column, trimmed to the degree. */
  def dsts: Array[Int] = java.util.Arrays.copyOf(dstArr, d)

  protected def growColumns(cap: Int): Unit = bias = java.util.Arrays.copyOf(bias, cap)
  protected def moveSlot(from: Int, to: Int): Unit = bias(to) = bias(from)
}
