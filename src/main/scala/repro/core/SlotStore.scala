package repro.core

/** Hornet-style slot array of one vertex's neighbors (paper §4.2,
  * supplement §9.1): a growable primitive `dst` column with O(1) amortised
  * append and delete-and-swap compaction, plus a primitive dst → slots index
  * in insertion (timestamp) order, so deleting a duplicated edge removes its
  * earliest surviving instance (§5.2).
  *
  * The index is an [[IntIntMap]] from each dst to its latest slot and a
  * per-slot `nextDup` column that links each instance of a dst to the next
  * later one, the latest closing the ring back to the earliest. Appending
  * (at the latest end) and taking the earliest are O(1); a compaction move
  * walks the moved slot's ring, which is one entry unless the edge is
  * duplicated.
  *
  * Subclasses add their own per-slot bias columns. The store calls
  * [[growColumns]] whenever the slot arrays grow and [[moveSlot]] whenever a
  * slot moves, so a subclass keeps its columns and its own slot references
  * (radix groups, decimal group) in step with the store.
  */
abstract class SlotStore(initialCap: Int) extends Serializable {
  protected var dstArr: Array[Int] = new Array[Int](initialCap)
  protected var d: Int = 0

  /** Per slot: the next later slot of the same dst (the latest: the earliest). */
  private var nextDup: Array[Int] = new Array[Int](initialCap)

  /** dst → its latest slot. */
  private var latest = new IntIntMap

  def degree: Int = d
  def dstAt(slot: Int): Int = dstArr(slot)
  def contains(dst: Int): Boolean = latest.get(dst) >= 0
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
      nextDup = java.util.Arrays.copyOf(nextDup, cap)
      growColumns(cap)
    }
    val slot = d
    dstArr(slot) = dst
    val last = latest.put(dst, slot)
    if (last < 0) nextDup(slot) = slot
    else { nextDup(slot) = nextDup(last); nextDup(last) = slot }
    d += 1
    slot
  }

  /** Earliest slot holding `dst`, or -1 if there is none. */
  protected final def firstSlotOf(dst: Int): Int = {
    val last = latest.get(dst)
    if (last < 0) -1 else nextDup(last)
  }

  /** Next later slot holding the same dst as `slot`, or -1 after the latest. */
  protected final def nextSlotOf(slot: Int): Int =
    if (latest.get(dstArr(slot)) == slot) -1 else nextDup(slot)

  /** Unindex the earliest surviving instance of `dst` and return its slot,
    * or -1 if absent. The slot stays occupied until it is compacted.
    */
  protected final def takeEarliest(dst: Int): Int = {
    val last = latest.get(dst)
    if (last < 0) return -1
    val first = nextDup(last)
    if (first == last) latest.remove(dst) else nextDup(last) = nextDup(first)
    first
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
    // the slot keeps its timestamp position in its ring, only its number changes
    val next = nextDup(from)
    if (next == from) {
      nextDup(to) = to
      latest.put(dst, to)
    } else {
      var prev = next
      while (nextDup(prev) != from) prev = nextDup(prev)
      nextDup(prev) = to
      nextDup(to) = next
      if (latest.get(dst) == from) latest.put(dst, to)
    }
  }

  /** Copy the slots and index of `src` into this (empty) store, keeping its capacity. */
  protected final def copySlotsFrom(src: SlotStore): Unit = {
    dstArr = src.dstArr.clone()
    nextDup = src.nextDup.clone()
    d = src.d
    latest = src.latest.copy()
  }

  /** Bytes of the dst column and the dst index. */
  protected final def slotBytes: Long = (dstArr.length + nextDup.length).toLong * 4 + latest.memoryBytes

  /** Fail-fast check that the dst index covers every slot exactly once, each
    * dst's ring closing from its latest slot back to its earliest.
    */
  protected final def validateSlots(): Unit = {
    var covered = 0
    latest.foreach { (dst, last) =>
      var s = nextDup(last)
      var steps = 0
      var done = false
      while (!done) {
        require(s >= 0 && s < d && dstArr(s) == dst && steps < d, s"dst index wrong: slot $s in the ring of $dst")
        steps += 1
        done = s == last
        s = nextDup(s)
      }
      covered += steps
    }
    require(covered == d, s"dst index covers $covered of $d slots")
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
