module type S = sig
  val apply : int -> int
end
