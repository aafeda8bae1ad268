(** Reference DES key schedule: the generic bit-gather expansion that
    {!Fbsr_crypto.Des_kernel.schedule} used before its table-driven
    PC-1/PC-2, kept as the differential oracle for it.  Not used on any
    datapath. *)

val schedule : string -> int array * int array
(** Same contract as {!Fbsr_crypto.Des_kernel.schedule}: an 8-byte key
    to packed [(encrypt, decrypt)] round words. *)
