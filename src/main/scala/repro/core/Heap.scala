package repro.core

/** Heap bytes of objects and arrays on a 64-bit JVM with compressed
  * references (heap < 32 GB), laid out as Spark's `SizeEstimator` counts
  * them: 12 B object headers, 16 B array headers (length included), 4 B
  * references, each object and each array payload rounded up to 8 B. The
  * `memoryBytes` models are sums of these.
  */
object Heap {
  val Ref: Int = 4

  /** An object whose fields take `fieldBytes`. */
  def obj(fieldBytes: Int): Long = align(12L + fieldBytes)

  /** An array of `length` elements of `elemBytes` each. */
  def array(length: Int, elemBytes: Int): Long = 16L + align(length.toLong * elemBytes)

  private def align(bytes: Long): Long = (bytes + 7) & ~7L
}
