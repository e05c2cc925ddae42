package repro.core

import scala.collection.mutable.ArrayBuffer

/** Hornet-style slot array of one vertex's neighbors (paper §4.2,
  * supplement §9.1): a growable primitive `dst` column with O(1) amortised
  * append and delete-and-swap compaction, plus a dst → slots index in
  * insertion (timestamp) order, so deleting a duplicated edge removes its
  * earliest surviving instance (§5.2).
  *
  * Subclasses add their own per-slot bias columns. The store calls
  * [[growColumns]] whenever the slot arrays grow and [[moveSlot]] whenever a
  * slot moves, so a subclass keeps its columns and its own slot references
  * (radix groups, decimal group) in step with the store.
  */
abstract class SlotStore(initialCap: Int) extends Serializable {
  protected var dstArr: Array[Int] = new Array[Int](initialCap)
  protected var d: Int = 0

  /** dst → slots holding an instance of (v, dst), in insertion (timestamp) order. */
  protected val slotsByDst = new java.util.HashMap[Int, ArrayBuffer[Int]]()

  def degree: Int = d
  def dstAt(slot: Int): Int = dstArr(slot)
  def contains(dst: Int): Boolean = slotsByDst.get(dst) != null
  private[core] def capacity: Int = dstArr.length

  /** Grow every subclass column to `cap` slots (`cap` > current capacity). */
  protected def growColumns(cap: Int): Unit

  /** Slot `from` moves to `to`: copy the subclass columns and re-point its
    * references. Called before the store moves the dst and its index entry.
    */
  protected def moveSlot(from: Int, to: Int): Unit

  /** Append a slot for `dst` (doubling capacity when full) and return it;
    * the caller fills its own columns at that slot.
    */
  protected final def appendSlot(dst: Int): Int = {
    if (d == dstArr.length) {
      val cap = d * 2
      dstArr = java.util.Arrays.copyOf(dstArr, cap)
      growColumns(cap)
    }
    val slot = d
    dstArr(slot) = dst
    var buf = slotsByDst.get(dst)
    if (buf == null) { buf = new ArrayBuffer[Int](1); slotsByDst.put(dst, buf) }
    buf += slot
    d += 1
    slot
  }

  /** Slots holding `dst`, earliest first, or null if there are none. */
  protected final def slotsOf(dst: Int): ArrayBuffer[Int] = slotsByDst.get(dst)

  /** Unindex the earliest surviving instance of `dst` and return its slot,
    * or -1 if absent. The slot stays occupied until it is compacted.
    */
  protected final def takeEarliest(dst: Int): Int = {
    val buf = slotsByDst.get(dst)
    if (buf == null) return -1
    val slot = buf.remove(0)
    if (buf.isEmpty) slotsByDst.remove(dst)
    slot
  }

  /** Compact away the `n` distinct freed slots in `freed` (sorted in place)
    * with [[SlotStore.twoPhaseCompact]].
    */
  protected final def compactSlots(freed: Array[Int], n: Int): Unit =
    d = SlotStore.twoPhaseCompact(freed, n, d)(move)

  private def move(from: Int, to: Int): Unit = {
    moveSlot(from, to)
    val dst = dstArr(from)
    dstArr(to) = dst
    // the index entry keeps its timestamp position, only the slot changes
    val buf = slotsByDst.get(dst)
    buf(buf.indexOf(from)) = to
  }

  /** Copy the slots and index of `src` into this (empty) store, keeping its capacity. */
  protected final def copySlotsFrom(src: SlotStore): Unit = {
    dstArr = java.util.Arrays.copyOf(src.dstArr, src.dstArr.length)
    d = src.d
    src.slotsByDst.forEach((k, v) => slotsByDst.put(k, v.clone()))
  }

  /** Bytes of the dst column and the dst index (approx. 24 B per entry). */
  protected final def slotBytes: Long = dstArr.length.toLong * 4 + slotsByDst.size().toLong * 24

  /** Fail-fast check that the dst index covers every slot exactly once. */
  protected final def validateSlots(): Unit = {
    var covered = 0
    slotsByDst.forEach { (dst, buf) =>
      buf.foreach { s => require(dstArr(s) == dst, s"slotsByDst wrong: slot $s"); covered += 1 }
    }
    require(covered == d, s"slotsByDst covers $covered of $d slots")
  }
}

object SlotStore {

  /** Two-phase parallel delete-and-swap (paper Fig. 10b) over positions
    * `[0, len)` of some array: removes the `n` distinct positions
    * `doomed(0 until n)` and returns the new length `len - n`.
    *
    * Phase (i): doomed entries inside the tail window `[len - n, len)` die
    * by truncation, and the window's other entries are the guaranteed
    * survivors. Phase (ii): each doomed position in front of the window is
    * filled by one survivor through `move(from, to)`; no move reads a doomed
    * entry (the hazard Fig. 10b avoids). With `n = 1` this is the streaming
    * delete-and-swap of Fig. 6. Sorts `doomed(0 until n)` in place.
    */
  def twoPhaseCompact(doomed: Array[Int], n: Int, len: Int)(move: (Int, Int) => Unit): Int = {
    val tailStart = len - n
    if (n > 1) java.util.Arrays.sort(doomed, 0, n)
    var front = 0 // doomed positions in front of the window
    while (front < n && doomed(front) < tailStart) front += 1
    var t = front // next doomed position inside the window
    var f = 0 // next doomed front position to fill
    var p = tailStart
    while (f < front) {
      if (t < n && doomed(t) == p) t += 1
      else { move(p, doomed(f)); f += 1 }
      p += 1
    }
    tailStart
  }
}
