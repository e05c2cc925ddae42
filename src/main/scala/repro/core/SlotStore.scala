package repro.core

/** Hornet-style slot array of one vertex's neighbors (paper §4.2,
  * supplement §9.1): a growable primitive `dst` column with O(1) amortised
  * append and delete-and-swap compaction, plus each dst's slots in
  * insertion (timestamp) order, so deleting a duplicated edge removes its
  * earliest surviving instance (§5.2).
  *
  * While no dst repeats, every slot is its own earliest and latest instance
  * and the store keeps nothing more. An append of a dst the vertex already
  * holds allocates a per-slot `nextDup` column, which links each instance
  * of a dst to the next later one; the latest stores `~earliest` (a
  * negative value), closing the ring. The column is dropped when the last
  * repeat is taken: a batch that deletes an edge and inserts it again
  * (inserts go first, §5.2) holds both instances only for that batch. A
  * slot taken by [[takeEarliest]] holds `~dst` (negative) until a
  * compaction removes it, so no lookup finds it.
  *
  * Finding a dst's latest instance is a scan of the dst column while the
  * vertex holds at most [[SlotStore.MaxScan]] slots (two cache lines of
  * dsts, as Hornet's lists find an edge); a larger vertex keeps an
  * [[IntIntMap]] from each dst to its latest slot, built in one pass when an
  * append takes it past [[SlotStore.MaxScan]] and dropped when a compaction
  * leaves at most [[SlotStore.DropIndexAt]]. Given the latest instance,
  * appending (at the latest end) and taking the earliest are O(1); a
  * compaction move walks the moved slot's ring, which is one entry unless
  * the edge is duplicated.
  *
  * Subclasses add their own per-slot bias columns. The store calls
  * [[growColumns]] whenever the slot arrays grow and [[moveSlot]] whenever a
  * slot moves, so a subclass keeps its columns and its own slot references
  * (radix groups, decimal group) in step with the store.
  */
abstract class SlotStore(initialCap: Int) extends Serializable {
  import SlotStore._

  protected var dstArr: Array[Int] = new Array[Int](initialCap)
  protected var d: Int = 0

  /** Per slot: the next later slot of the same dst; the latest holds
    * `~earliest`. Null while no dst repeats.
    */
  private var nextDup: Array[Int] = null

  /** Slots that are not the latest instance of their dst: > 0 iff `nextDup` exists. */
  private var repeats: Int = 0

  /** dst → its latest slot, from when the vertex passes [[SlotStore.MaxScan]]
    * slots until a compaction leaves [[SlotStore.DropIndexAt]] or fewer; else null.
    */
  private var latest: IntIntMap = null

  def degree: Int = d
  /** The dst held in `slot` (read by `Vertices` and the core and engine specs). */
  def dstAt(slot: Int): Int = dstArr(slot)
  def contains(dst: Int): Boolean = latestSlot(dst) >= 0
  private[core] def capacity: Int = dstArr.length
  private[core] def indexed: Boolean = latest != null
  /** Whether the `nextDup` ring exists (read by SlotStoreSpec). */
  private[core] def ringed: Boolean = nextDup != null

  /** Grow every subclass column to `cap` slots (`cap` > current capacity). */
  protected def growColumns(cap: Int): Unit

  /** Slot `from` moves to `to`: copy the subclass columns and re-point its
    * references. Called before the store moves the dst and its index entry.
    */
  protected def moveSlot(from: Int, to: Int): Unit

  /** Make room for `n` more slots at once: the capacity doubling would reach
    * and, past [[SlotStore.MaxScan]] slots, the dst index, sized once.
    */
  protected final def reserve(n: Int): Unit = {
    val need = d + n
    if (need > dstArr.length) {
      var cap = dstArr.length
      while (cap < need) cap *= 2
      grow(cap)
    }
    if (latest == null && need > MaxScan) buildIndex(need)
  }

  /** Append a slot for `dst` (doubling capacity when full) and return it;
    * the caller fills its own columns at that slot.
    */
  protected final def appendSlot(dst: Int): Int = {
    if (dst < 0) throw SlotStore.negativeDst(dst)
    if (d == dstArr.length) grow(d * 2)
    val last = latestSlot(dst)
    val slot = d
    dstArr(slot) = dst
    if (last >= 0) {
      if (nextDup == null) startRings()
      nextDup(slot) = nextDup(last)
      nextDup(last) = slot
      repeats += 1
    } else if (nextDup != null) nextDup(slot) = ~slot
    d += 1
    if (latest != null) latest.put(dst, slot)
    else if (d > MaxScan) buildIndex(d)
    slot
  }

  /** Earliest slot holding `dst`, or -1 if there is none (read by SlotStoreSpec). */
  protected final def firstSlotOf(dst: Int): Int = {
    val last = latestSlot(dst)
    if (last < 0 || nextDup == null) last else ~nextDup(last)
  }

  /** Next later slot holding the same dst as `slot`, or -1 after the latest (read by SlotStoreSpec). */
  protected final def nextSlotOf(slot: Int): Int = if (nextDup == null) -1 else math.max(nextDup(slot), -1)

  /** Unindex the earliest surviving instance of `dst` and return its slot,
    * or -1 if absent. The slot stays occupied, holding `~dst`, until it is
    * compacted.
    */
  protected final def takeEarliest(dst: Int): Int = {
    val last = latestSlot(dst)
    if (last < 0) return -1
    val first = if (nextDup == null) last else ~nextDup(last)
    if (first != last) {
      nextDup(last) = ~nextDup(first)
      repeats -= 1
      if (repeats == 0) nextDup = null // every ring left is a single slot
    } else if (latest != null) latest.remove(dst)
    dstArr(first) = ~dst
    first
  }

  /** Compact away the `n` distinct freed slots in `freed` (sorted in place)
    * with [[SlotStore.twoPhaseCompact]].
    */
  protected final def compactSlots(freed: Array[Int], n: Int): Unit = {
    val m = slotMove.get()
    m.store = this
    d = SlotStore.twoPhaseCompact(freed, n, d)(m)
    m.store = null
    if (d <= DropIndexAt) latest = null
  }

  /** The latest slot holding `dst`, or -1 if there is none. */
  private def latestSlot(dst: Int): Int = {
    if (latest != null) return latest.get(dst)
    var s = 0
    while (s < d) {
      if (dstArr(s) == dst && (nextDup == null || nextDup(s) < 0)) return s
      s += 1
    }
    -1
  }

  private def grow(cap: Int): Unit = {
    dstArr = java.util.Arrays.copyOf(dstArr, cap)
    if (nextDup != null) nextDup = java.util.Arrays.copyOf(nextDup, cap)
    growColumns(cap)
  }

  /** A repeated dst while none repeats: every slot so far starts as a ring of its own. */
  private def startRings(): Unit = {
    nextDup = new Array[Int](dstArr.length)
    var s = 0
    while (s < d) { nextDup(s) = ~s; s += 1 }
  }

  /** The dst index over the latest instances, sized for `entries` dsts. */
  private def buildIndex(entries: Int): Unit = {
    latest = new IntIntMap(entries)
    var s = 0
    while (s < d) {
      if (nextDup == null || nextDup(s) < 0) latest.put(dstArr(s), s)
      s += 1
    }
  }

  private def move(from: Int, to: Int): Unit = {
    moveSlot(from, to)
    val dst = dstArr(from)
    dstArr(to) = dst
    // the slot keeps its timestamp position in its ring, only its number changes
    val next = if (nextDup == null) ~from else nextDup(from)
    if (next == ~from) { if (nextDup != null) nextDup(to) = ~to }
    else {
      nextDup(to) = next
      var prev = ring(from)
      var steps = 1
      while (ring(prev) != from) {
        if (steps >= d) throw new IllegalStateException(s"slot $from (dst $dst): its ring does not return to it within $d slots")
        prev = ring(prev)
        steps += 1
      }
      nextDup(prev) = if (nextDup(prev) < 0) ~to else to
    }
    if (next < 0 && latest != null) latest.put(dst, to)
  }

  /** The slot after `slot` in its ring: the latest's successor is the earliest. */
  private def ring(slot: Int): Int = { val n = nextDup(slot); if (n < 0) ~n else n }

  /** Bytes of the dst column, the `nextDup` ring and the dst index. */
  protected final def slotBytes: Long =
    Heap.array(dstArr.length, 4) + (if (nextDup == null) 0L else Heap.array(nextDup.length, 4)) +
      (if (latest == null) 0L else latest.memoryBytes)

  /** Fail-fast check that each dst has one latest instance, whose `~earliest`
    * starts a ring through that dst's slots back to it (without rings, that
    * no dst repeats); that the rings cover every slot exactly once, and
    * exist iff some dst repeats; and that the dst index exists past
    * [[SlotStore.MaxScan]] slots, not at [[SlotStore.DropIndexAt]] or fewer,
    * and maps each dst to its latest slot (read by SlotStoreSpec and
    * [[BingoVertex.validate]]).
    */
  protected final def validateSlots(): Unit = {
    require(if (d > MaxScan) latest != null else d > DropIndexAt || latest == null, s"dst index ${latest != null} at $d slots")
    val dsts = new IntIntMap(d)
    var covered = 0
    for (last <- 0 until d if nextDup == null || nextDup(last) < 0) {
      val dst = dstArr(last)
      require(dst >= 0 && dsts.put(dst, last) < 0 && (latest == null || latest.get(dst) == last), s"dst $dst: two latest instances, or an index entry off slot $last")
      var s = if (nextDup == null) last else ~nextDup(last)
      covered += 1
      while (s != last) {
        require(s >= 0 && s < d && dstArr(s) == dst && nextDup(s) >= 0 && covered < d, s"slot $s in the ring of $dst")
        covered += 1
        s = nextDup(s)
      }
    }
    require(covered == d && (latest == null || latest.size == dsts.size), s"the rings cover $covered of $d slots")
    require(repeats == d - dsts.size && (nextDup != null) == (repeats > 0), s"$repeats repeats counted, ${d - dsts.size} held")
  }
}

object SlotStore {

  /** The slot compaction's move, one per thread, pointed at the store it
    * compacts: a compaction allocates no closure.
    */
  private final class SlotMove extends ((Int, Int) => Unit) {
    var store: SlotStore = null
    def apply(from: Int, to: Int): Unit = store.move(from, to)
  }

  private val slotMove = ThreadLocal.withInitial[SlotMove](() => new SlotMove)

  private def negativeDst(dst: Int) = new IllegalArgumentException(s"requirement failed: a dst must be non-negative: $dst")

  /** Most slots a vertex finds a dst among by scanning its dst column. */
  val MaxScan: Int = 32

  /** A compaction to this many slots or fewer drops the dst index. */
  val DropIndexAt: Int = 16

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
