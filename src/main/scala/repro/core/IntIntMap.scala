package repro.core

/** Primitive open-addressing map from non-negative `Int` keys to
  * non-negative `Int` values: linear probing with backward-shift deletion
  * (no tombstones), power-of-two capacity and load ≤ 0.5. Each entry keeps
  * its key and value side by side in one array. A map that never held an
  * entry allocates no table.
  */
final class IntIntMap extends Serializable {
  import IntIntMap._

  // entry i: key at 2i (Free when empty), value at 2i + 1
  private var table: Array[Int] = EmptyTable
  private var n = 0

  def size: Int = n

  /** Entries the table holds before it must grow; grows by doubling. */
  private[core] def capacity: Int = table.length / 2

  /** Value of `key`, or -1 if absent. */
  def get(key: Int): Int = {
    if (n == 0) return Absent
    val i = indexOf(key)
    if (table(i) == Free) Absent else table(i + 1)
  }

  /** Map `key` to `value`; returns the previous value, or -1 if absent. */
  def put(key: Int, value: Int): Int = {
    require(key >= 0 && value >= 0, s"IntIntMap holds non-negative keys and values, got $key -> $value")
    if (table.length == 0) table = newTable(MinCapacity)
    var i = indexOf(key)
    if (table(i) != Free) {
      val old = table(i + 1)
      table(i + 1) = value
      return old
    }
    if ((n + 1) * 4 > table.length) { grow(); i = indexOf(key) }
    table(i) = key
    table(i + 1) = value
    n += 1
    Absent
  }

  /** Remove `key`; returns its value, or -1 if absent. */
  def remove(key: Int): Int = {
    if (n == 0) return Absent
    var hole = indexOf(key)
    if (table(hole) == Free) return Absent
    val old = table(hole + 1)
    // backward shift: pull each later entry of the probe run whose home is
    // not cyclically inside (hole, j] back into the hole
    val mask = table.length - 1
    var j = (hole + 2) & mask
    while (table(j) != Free) {
      val dist = (j - home(table(j), mask)) & mask
      if (dist >= ((j - hole) & mask)) {
        table(hole) = table(j)
        table(hole + 1) = table(j + 1)
        hole = j
      }
      j = (j + 2) & mask
    }
    table(hole) = Free
    n -= 1
    old
  }

  def foreach(f: (Int, Int) => Unit): Unit = {
    var i = 0
    while (i < table.length) {
      if (table(i) != Free) f(table(i), table(i + 1))
      i += 2
    }
  }

  /** The map object and its table (the shared empty table counts nothing). */
  def memoryBytes: Long = Heap.obj(Heap.Ref + 4) + (if (table.length == 0) 0L else Heap.array(table.length, 4))

  /** Array index of `key`'s entry, or of the free entry that ends its probe run. */
  private def indexOf(key: Int): Int = {
    val mask = table.length - 1
    var i = home(key, mask)
    while (table(i) != Free && table(i) != key) i = (i + 2) & mask
    i
  }

  /** Double the capacity and reinsert every entry. */
  private def grow(): Unit = {
    val old = table
    table = newTable(old.length)
    var i = 0
    while (i < old.length) {
      if (old(i) != Free) {
        val j = indexOf(old(i))
        table(j) = old(i)
        table(j + 1) = old(i + 1)
      }
      i += 2
    }
  }
}

object IntIntMap {
  private val Absent = -1
  private val Free = -1
  private val MinCapacity = 4
  private val EmptyTable = new Array[Int](0)

  /** A free table of `2 * entries` ints. */
  private def newTable(entries: Int): Array[Int] = {
    val t = new Array[Int](2 * entries)
    java.util.Arrays.fill(t, Free)
    t
  }

  /** Array index where `key`'s probe run starts in a table of `mask + 1` ints. */
  private def home(key: Int, mask: Int): Int = {
    val h = key * 0x9e3779b9
    ((h ^ (h >>> 16)) << 1) & mask
  }

  /** Entry index (0 until `capacity`) where `key`'s probe run starts. */
  private[core] def homeEntry(key: Int, capacity: Int): Int = home(key, 2 * capacity - 1) / 2
}
