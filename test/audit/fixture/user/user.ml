open Audit_fixture
module A = Aliased

module Twice (F : Shape.S) = struct
  let apply x = F.apply (F.apply x)
end

module T = Twice (Functor_arg)

let packed : (module Shape.S) = (module Packed)

let () =
  let (module P) = packed in
  Printf.printf "%d %d %d %d\n" (Direct.called 1) (A.via_alias 1) (P.apply 1)
    (T.apply 1)
