let oid_valid store ~txn ~oid ~version =
  match Store.Replica.find store oid with
  | None -> false
  | Some copy ->
    let stale = version < copy.version in
    let locked =
      match copy.protected_by with
      | None -> false
      | Some lease -> lease.Store.Replica.owner <> txn
    in
    (not stale) && not locked

(* [max_int] as the "no invalid entry yet" sentinel keeps the loop free of
   option allocation; owner tags are small non-negative ints. *)
let validate store ~txn ~(dataset : Messages.dataset) =
  let worst = ref max_int in
  let n = Messages.dataset_len dataset in
  for i = 0 to n - 1 do
    let oid = Array.unsafe_get dataset.ds_oids i in
    if not (oid_valid store ~txn ~oid ~version:(Array.unsafe_get dataset.ds_versions i))
    then begin
      Store.Replica.remove_txn store ~oid ~txn;
      let owner = Array.unsafe_get dataset.ds_owners i in
      if owner < !worst then worst := owner
    end
  done;
  if !worst = max_int then None else Some !worst
