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
  def foreachRun(f: UpdateBatch.RunFn): Unit = {
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

  /** The callback of [[UpdateBatch.foreachRun]]: a vertex and the bounds of
    * its run, passed unboxed (a `Function3` of `Int`s boxes all three).
    */
  trait RunFn {
    def apply(v: Int, from: Int, until: Int): Unit
  }

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
    val slices = new Slices(updates.length, p, n, 1)
    var inOrder = true
    var last = Long.MinValue
    var i = 0
    var it = updates.iterator
    while (it.hasNext) {
      val u = it.next()
      check("update", u, u.insert, u.src, u.dst, u.bias, n)
      slices.count(0, i, u.src)
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
      out(slices.slice(i)).set(slices.place(0, i), u.ts, u.insert, u.src, u.dst, u.bias)
      i += 1
    }
    out
  }

  /** A snapshot as `p` slice batches of inserts, `ts` its listed order:
    * batch `s` holds the edges with `src % p == s`, as [[split]] would.
    * Both passes run on up to `p` contiguous chunks of the edges at once
    * (see [[inSlices]]), and each chunk writes its entries at positions of
    * its own. A chunk stops at its first malformed edge; after the first pass
    * the lowest such index fails, with the message a one-thread pass gives.
    */
  private[engine] def snapshot(edges: Seq[Edge], n: Int, p: Int): Array[UpdateBatch] = {
    val es = edges.toArray
    val m = es.length
    val slices = new Slices(m, p, n, p)
    val bad = Array.fill(slices.chunks)(m) // per chunk: the index of its first malformed edge, m if none
    inSlices(slices.chunks) { c =>
      var i = slices.chunkStart(c)
      val end = slices.chunkStart(c + 1)
      while (i < end) {
        val e = es(i)
        if (fault(true, e.src, e.dst, e.bias, n) != null) { bad(c) = i; i = end }
        else { slices.count(c, i, e.src); i += 1 }
      }
    }
    val first = bad.min
    if (first < m) {
      val e = es(first)
      check("snapshot edge", e, true, e.src, e.dst, e.bias, n)
    }
    val out = slices.batches()
    inSlices(slices.chunks) { c =>
      var i = slices.chunkStart(c)
      val end = slices.chunkStart(c + 1)
      while (i < end) {
        val e = es(i)
        out(slices.slice(i)).set(slices.place(c, i), i, true, e.src, e.dst, e.bias)
        i += 1
      }
    }
    out
  }

  /** Slices of a build: one per processor, as in a Spark round. */
  private[engine] def buildSlices: Int = Runtime.getRuntime.availableProcessors

  /** Build from a snapshot in `p` slices: [[snapshot]], then `f(s, batch)`
    * for each slice `s` (the vertices `v % p == s`) with its batch of
    * inserts, the slices run at once by [[inSlices]]. No vertex is touched
    * before every edge has been checked.
    */
  private[engine] def build(edges: Seq[Edge], n: Int, p: Int)(f: (Int, UpdateBatch) => Unit): Unit = {
    val batches = snapshot(edges, n, p)
    inSlices(p)(s => f(s, batches(s)))
  }

  /** `f(s)` for each `s < p`, on one thread fewer than there are
    * processors (at most `p`, at least one): the caller and daemon threads
    * started for the call, each taking the next slice until none is left.
    * The free processor is the JIT compiler's, which a fresh JVM's first
    * builds wait on (EXPERIMENTS.md, "Snapshot build time"). The first
    * failure is rethrown once all are done.
    */
  private def inSlices(p: Int)(f: Int => Unit): Unit = {
    val next = new java.util.concurrent.atomic.AtomicInteger
    val failure = new java.util.concurrent.atomic.AtomicReference[Throwable]
    val work: Runnable = () =>
      try {
        var s = next.getAndIncrement()
        while (s < p) { f(s); s = next.getAndIncrement() }
      } catch { case t: Throwable => failure.compareAndSet(null, t) }
    val helpers = Array.fill(math.min(p, Runtime.getRuntime.availableProcessors - 1) - 1)(new Thread(work))
    helpers.foreach { t => t.setDaemon(true); t.start() }
    work.run()
    helpers.foreach(_.join())
    if (failure.get != null) throw failure.get
  }

  /** Fail on a malformed entry, named in the message as `kind` and `entry`. */
  private def check(kind: String, entry: AnyRef, insert: Boolean, src: Int, dst: Int, bias: Double, n: Int): Unit = {
    val f = fault(insert, src, dst, bias, n)
    if (f != null) throw new IllegalArgumentException(s"requirement failed: $kind $entry $f")
  }

  /** What is wrong with an entry, or null if nothing is. */
  private def fault(insert: Boolean, src: Int, dst: Int, bias: Double, n: Int): String =
    if (src < 0) "has a negative src"
    else if (dst < 0) "has a negative dst"
    else if (src >= n || dst >= n) s"names a vertex outside the engine's $n vertices"
    else if (insert && !(bias > 0.0 && bias <= Double.MaxValue)) "has a bias that is not positive and finite"
    else if (insert && bias >= BingoVertex.TwoPow63) "has a bias of 2^63 or more"
    else null

  /** The counting sort behind [[split]] and [[snapshot]] for `m` entries,
    * `p` slices of `n` vertices and up to `maxChunks` contiguous chunks of
    * the entries. A chunk counts p·⌈n/p⌉ keys, so there is at most one chunk
    * per that many entries: p chunks' counters would pass 2^31 at the
    * paper's TW scale (41.7M vertices) on 52 processors. In the first pass
    * [[count]] records entry `i`'s key (slice, then src) and counts it in
    * its chunk; [[batches]] sizes the slice batches and gives each chunk its
    * own next position per key, after those of the lower chunks; in the
    * second pass [[slice]] / [[place]] give entry `i`'s batch and position.
    * Each chunk's second pass must visit its entries in the order of its
    * first; chunks may run at once.
    */
  private final class Slices(m: Int, p: Int, n: Int, maxChunks: Int) {
    private val q = (n + p - 1) / p
    private val width = p * q // keys per chunk
    val chunks: Int = math.min(maxChunks, math.max(1, m / math.max(1, width)))
    private val keys = new Array[Int](m)
    private val next = new Array[Int](chunks * width) // at c * width + key: the chunk's count, then its next position

    /** The first entry of chunk `c`; `chunkStart(chunks)` is `m`. */
    def chunkStart(c: Int): Int = (c.toLong * m / chunks).toInt

    def count(c: Int, i: Int, src: Int): Unit = {
      val k = src % p * q + src / p
      keys(i) = k
      next(c * width + k) += 1
    }

    def batches(): Array[UpdateBatch] = {
      val out = new Array[UpdateBatch](p)
      var s = 0
      while (s < p) {
        var at = 0 // positions restart at 0 in each slice
        var k = s * q
        while (k < (s + 1) * q) {
          var j = k
          while (j < next.length) {
            val counted = next(j)
            next(j) = at
            at += counted
            j += width
          }
          k += 1
        }
        out(s) = new UpdateBatch(at)
        s += 1
      }
      out
    }

    def slice(i: Int): Int = keys(i) / q

    def place(c: Int, i: Int): Int = {
      val j = c * width + keys(i)
      val at = next(j)
      next(j) = at + 1
      at
    }
  }
}
