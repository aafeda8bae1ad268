val via_alias : int -> int
(** Called only as [A.via_alias] after [module A = Audit_fixture.Aliased]. *)
