(** Internet checksum (RFC 1071), used by the IPv4/UDP/TCP codecs. *)

val sum : ?acc:int -> string -> int -> int -> int
(** [sum ?acc s pos len]: running one's-complement 16-bit sum of
    [s.[pos..pos+len-1]] (an odd last byte is the high half of a word),
    carries folded.  Chain partial sums by passing the previous result —
    or any non-negative unfolded sum, such as a pseudo-header's words
    added as integers — as [acc].
    @raise Invalid_argument if the range is not within [s]. *)

val finish : int -> int
(** One's complement of the folded sum: the checksum field value. *)

val string : string -> int
(** Checksum of a whole buffer (with the checksum field zeroed). *)
