package repro.engine

import repro.core.BingoVertex
import repro.graph.{Edge, Update}

/** Graph updates as primitive columns: the one form in which snapshot
  * builds, local rounds and Spark rounds reach an engine. Paper §5.2 groups
  * a round's updates by vertex, and each vertex applies its own in
  * timestamp order, so each vertex's updates form one run of the columns,
  * in `ts` order with ties kept in listed order; runs ascend by `src`.
  * Every entry is checked before any vertex changes: `src` and `dst` name
  * vertices of the engine, and an insert's bias is positive, finite and
  * below 2^63 (the range of Bingo's radix bias word).
  */
final class UpdateBatch private (val size: Int) extends Serializable {
  private[engine] val ts = new Array[Long](size)
  private[engine] val insert = new Array[Boolean](size)
  private[engine] val src = new Array[Int](size)
  private[engine] val dst = new Array[Int](size)
  private[engine] val bias = new Array[Double](size)

  private def set(i: Int, t: Long, in: Boolean, s: Int, d: Int, w: Double): Unit = {
    ts(i) = t; insert(i) = in; src(i) = s; dst(i) = d; bias(i) = w
  }

  /** Call `f(v, from, until)` for each vertex `v`'s run of the columns. */
  def foreachRun(f: (Int, Int, Int) => Unit): Unit = {
    var i = 0
    while (i < size) {
      var j = i + 1
      while (j < size && src(j) == src(i)) j += 1
      f(src(i), i, j)
      i = j
    }
  }

  /** Hand each vertex's run to [[WalkEngine.applyVertexUpdates]] as a [[UpdateBatch.Run]]. */
  def applyTo(eng: WalkEngine): Unit = foreachRun((v, from, until) => eng.applyVertexUpdates(v, new UpdateBatch.Run(this, from, until)))
}

object UpdateBatch {

  /** Entries `from until until` of `batch`, one vertex's run, seen as
    * `Update`s: an engine reads the run's columns directly, and an `Update`
    * is built only when something indexes the view.
    */
  final class Run private[engine] (private[engine] val batch: UpdateBatch, private[engine] val from: Int, private[engine] val until: Int)
      extends IndexedSeq[Update] {
    def length: Int = until - from
    def apply(k: Int): Update = {
      if (k < 0 || k >= length) throw new IndexOutOfBoundsException(s"$k is outside a run of $length updates")
      val i = from + k
      Update(batch.ts(i), batch.insert(i), batch.src(i), batch.dst(i), batch.bias(i))
    }

    /** How many of the run's entries are deletes. */
    private[engine] def deletes: Int = {
      var n = 0
      var i = from
      while (i < until) { if (!batch.insert(i)) n += 1; i += 1 }
      n
    }
  }

  /** `updates` as one run: a [[Run]] as it is, any other sequence (tests
    * call engines with plain ones) copied in listed order into a one-run batch.
    */
  private[engine] def run(updates: Seq[Update]): Run = updates match {
    case r: Run => r
    case _ =>
      val b = new UpdateBatch(updates.length)
      var i = 0
      updates.foreach { u => b.set(i, u.ts, u.insert, u.src, u.dst, u.bias); i += 1 }
      new Run(b, 0, b.size)
  }

  /** A round's updates for an engine of `n` vertices as `p` slice batches:
    * batch `s` holds the updates with `src % p == s`. Two passes: the first
    * checks each update and counts its slice/src key, the second writes it
    * straight into its slice batch.
    */
  def split(updates: Seq[Update], p: Int, n: Int): Array[UpdateBatch] = {
    val slices = new Slices(updates.length, p, n)
    var inOrder = true
    var last = Long.MinValue
    var i = 0
    var it = updates.iterator
    while (it.hasNext) {
      val u = it.next()
      check("update", u, u.insert, u.src, u.dst, u.bias, n)
      slices.count(i, u.src)
      inOrder &&= last <= u.ts
      last = u.ts
      i += 1
    }
    if (!inOrder) return split(updates.sortBy(_.ts), p, n) // stable: ties keep their listed order
    val out = slices.batches()
    i = 0
    it = updates.iterator
    while (it.hasNext) {
      val u = it.next()
      out(slices.slice(i)).set(slices.place(i), u.ts, u.insert, u.src, u.dst, u.bias)
      i += 1
    }
    out
  }

  /** A snapshot as one batch of inserts, `ts` its listed order. */
  def snapshot(edges: Seq[Edge], n: Int): UpdateBatch = {
    val slices = new Slices(edges.length, 1, n)
    var i = 0
    var it = edges.iterator
    while (it.hasNext) {
      val e = it.next()
      check("snapshot edge", e, true, e.src, e.dst, e.bias, n)
      slices.count(i, e.src)
      i += 1
    }
    val b = slices.batches()(0)
    i = 0
    it = edges.iterator
    while (it.hasNext) {
      val e = it.next()
      b.set(slices.place(i), i, true, e.src, e.dst, e.bias)
      i += 1
    }
    b
  }

  /** Fail on a malformed entry, named in the message as `kind` and `entry`. */
  private def check(kind: String, entry: AnyRef, insert: Boolean, src: Int, dst: Int, bias: Double, n: Int): Unit = {
    val fault =
      if (src < 0) "has a negative src"
      else if (dst < 0) "has a negative dst"
      else if (src >= n || dst >= n) s"names a vertex outside the engine's $n vertices"
      else if (insert && !(bias > 0.0 && bias <= Double.MaxValue)) "has a bias that is not positive and finite"
      else if (insert && bias >= BingoVertex.TwoPow63) "has a bias of 2^63 or more"
      else null
    if (fault != null) throw new IllegalArgumentException(s"requirement failed: $kind $entry $fault")
  }

  /** The counting sort behind [[split]] and [[snapshot]] for `m` entries
    * and `p` slices of `n` vertices: [[count]] records entry `i`'s key
    * (slice, then src) in the first pass, [[batches]] sizes the slice
    * batches, and [[slice]] / [[place]] give entry `i`'s batch and position
    * in the second pass, which must visit the entries in the same order.
    */
  private final class Slices(m: Int, p: Int, n: Int) {
    private val q = (n + p - 1) / p
    private val keys = new Array[Int](m)
    private val next = new Array[Int](p * q + 1) // per key: its count, then its next position

    def count(i: Int, src: Int): Unit = {
      val k = src % p * q + src / p
      keys(i) = k
      next(k + 1) += 1
    }

    def batches(): Array[UpdateBatch] = {
      val out = new Array[UpdateBatch](p)
      var s = 0
      while (s < p) {
        var k = s * q + 1 // positions restart at 0 in each slice
        while (k <= (s + 1) * q) { next(k) += next(k - 1); k += 1 }
        out(s) = new UpdateBatch(next((s + 1) * q))
        next((s + 1) * q) = 0
        s += 1
      }
      out
    }

    def slice(i: Int): Int = keys(i) / q

    def place(i: Int): Int = {
      val at = next(keys(i))
      next(keys(i)) += 1
      at
    }
  }
}
