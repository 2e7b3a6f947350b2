(* End-to-end benchmark harness for NetCov.

   One process runs one workload as a single-client closed loop: each op
   starts when the previous one has ended and its outputs have been
   checked. Usage:

     harness.exe --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. With [--trace 0] the
   metrics are the end-to-end ones; with [--trace 1] the op is rebuilt
   from the layers' public functions and timed around each call, and the
   metrics are the per-layer ones. The program never sees the seed: the
   harness turns it into configuration text and test suites. See
   README.md in this directory for the workloads and the metrics. *)

open Netcov_config
open Netcov_sim
open Netcov_core
open Netcov_nettest
open Netcov_workloads
module Pool = Netcov_parallel.Pool
module Incr = Netcov_incr.Incr
module Metrics = Netcov_obs.Metrics

(* Fixed here, not read from the machine, so that runs on different
   hosts exercise the same schedule. *)
let domains = 2
let now = Unix.gettimeofday
let ms s = s *. 1000.
let mb bytes = bytes /. (1024. *. 1024.)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The 75th percentile, interpolated between order statistics: the
   highest percentile with ten ops beyond it in a run of 40 ops. A run
   holds about 10 to 30 ops, and a rank that moved with the op count
   would shift whenever a change made the op faster (see README.md,
   "op_tail_ms"). *)
let p75 xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = 0.75 *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* ------------------------------------------------------------------ *)
(* Measurement probes (outside every timer)                            *)
(* ------------------------------------------------------------------ *)

(* The host's speed drifts by a factor of two and more over seconds to
   minutes, because other tenants share its cores and caches: far more
   than the changes the benchmark must resolve. So a fixed calibration
   kernel runs before and after every timed op and set-up, and times are
   reported scaled to the kernel's nominal time: ops that took 700 ms
   while the kernel ran 1.25x slower than nominal read 560 ms. Op times
   are scaled by the run's median kernel time; a single op is too short
   for its own two kernels to track the host better than that. The kernel
   chases pointers through, and streams over, an 8 MB array allocated
   once; it allocates nothing, so the program's heap cannot change its
   speed, and its code never changes with the program's. *)
let kernel_nominal_s = 0.015
let kernel_data = Array.init (1 lsl 20) (fun i -> ((i * 7919) + 13) land ((1 lsl 20) - 1))

let kernel () =
  let t0 = now () in
  let a = kernel_data in
  let idx = ref 0 and acc = ref 0 in
  for _ = 1 to 300_000 do
    idx := a.(!idx);
    acc := !acc + !idx
  done;
  for r = 1 to 4 do
    for i = 0 to Array.length a - 1 do
      acc := !acc + (a.(i) lxor r)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* Nominal over measured kernel time. *)
let speed_factor kernel_s = kernel_nominal_s /. kernel_s

(* [Gc.stat] sums every domain's counters (unlike [Gc.counters] in
   OCaml 5.1, which sees only the calling domain) and runs a full major
   collection, so each op also starts from the same heap state. *)
let allocated_bytes () =
  let s = Gc.stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let peak_heap_mb () =
  mb (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)))

let counter name =
  match Metrics.value Metrics.default name with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Layer spans (traced runs only)                                      *)
(* ------------------------------------------------------------------ *)

let tracing = ref false

(* Per-op values of the per-layer metrics; the reported figure is the
   median over the run's ops. *)
let layer_values : (string, float list) Hashtbl.t = Hashtbl.create 64

(* The current op's accumulators, flushed into [layer_values] when the
   op ends. *)
let op_values : (string, float) Hashtbl.t = Hashtbl.create 64
let op_spanned = ref 0.
let op_probe = ref 0.

let get name = Option.value (Hashtbl.find_opt op_values name) ~default:0.
let add name v = Hashtbl.replace op_values name (get name +. v)
let set name v = Hashtbl.replace op_values name v

let record name v =
  Hashtbl.replace layer_values name
    (v :: Option.value (Hashtbl.find_opt layer_values name) ~default:[])

(* Ratios are taken per op, from the op's own sums. *)
let flush_op () =
  if get "sim_lookups" > 0. then
    Hashtbl.replace op_values "materialize.sim_cache_hit_ratio"
      (get "sim_hits" /. get "sim_lookups");
  let base = get "simulator.compute_ms" +. get "nettest.exec_ms" in
  if get "materialize.ms" > 0. && base > 0. then begin
    Hashtbl.replace op_values "coverage_to_exec_ratio"
      ((get "materialize.ms" +. get "label.ms") /. base);
    Hashtbl.replace op_values "coverage_to_exec_base_ms" base
  end;
  Hashtbl.iter record op_values;
  Hashtbl.reset op_values

(* A span around one call into a layer, timed from the op's own domain.
   Spans of one op never nest, so their sum is the op time the layers
   account for. *)
let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    add name (ms dt);
    op_spanned := !op_spanned +. dt;
    r
  end

(* A measurement the harness makes inside a traced op; its time is
   taken out of the op's wall time. *)
let probe f =
  let t0 = now () in
  let r = f () in
  op_probe := !op_probe +. (now () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type inputs = {
  files : (string * string) list;  (** file name, configuration text *)
  externals : string list;  (** hostnames declared as environment stubs *)
  syntax : [ `Junos | `Ios ];
  tests : Nettest.t list;
  expect_elements : int;  (** the generator's element count *)
  expect_lines : int;  (** the generator's configuration line count *)
  fattree : Fattree.t option;
}

let file_of (d : Device.t) syntax =
  ( d.Device.hostname ^ ".cfg",
    match syntax with
    | `Junos -> Emit_junos.to_string d
    | `Ios -> Emit_ios.to_string d )

let make_inputs ~syntax ~tests ?fattree devices order =
  let reg = Registry.build devices in
  {
    files = order (List.map (fun d -> file_of d syntax) devices);
    externals =
      List.filter_map
        (fun (d : Device.t) ->
          if d.Device.is_external then Some d.Device.hostname else None)
        devices;
    syntax;
    tests;
    expect_elements = Registry.n_elements reg;
    expect_lines = Registry.total_lines reg;
    fattree;
  }

let internet2_inputs seed =
  let net = Internet2.generate { Internet2.paper_params with seed } in
  make_inputs ~syntax:`Junos ~tests:(Iterations.improved_suite net)
    net.Internet2.devices Fun.id

(* The fat-tree is fixed by k; the seed orders the files the program is
   handed, which fixes the registry's element numbering. *)
let shuffle seed xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let fattree_inputs seed =
  let ft = Fattree.generate ~k:8 () in
  make_inputs ~syntax:`Ios ~tests:(Datacenter.suite ft) ~fattree:ft
    ft.Fattree.devices (shuffle seed)

let parse_file inp (file, text) =
  let hostname = Filename.remove_extension file in
  let parsed =
    match inp.syntax with
    | `Junos -> Result.map_error Parse_junos.error_to_string (Parse_junos.parse ~hostname text)
    | `Ios -> Result.map_error Parse_ios.error_to_string (Parse_ios.parse ~hostname text)
  in
  match parsed with
  | Ok d -> { d with Device.is_external = List.mem hostname inp.externals }
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)

let bytes_of files =
  List.fold_left (fun acc (_, t) -> acc + String.length t) 0 files

(* ------------------------------------------------------------------ *)
(* Output checks, shared by the ops and the self-test                  *)
(* ------------------------------------------------------------------ *)

(* A check returns what it found wrong, as (check, detail) pairs; [] is a
   pass. *)
let expect check cond fmt =
  Printf.ksprintf (fun detail -> if cond then [] else [ (check, detail) ]) fmt

(* Self-test: [what] is a corrupted output that the check named [check]
   must reject. *)
let must_reject ~check what findings =
  if List.mem_assoc check findings then []
  else [ Printf.sprintf "%s (check %S passed it)" what check ]

let statuses cov =
  let reg = Coverage.registry cov in
  let strong = ref Element.Id_set.empty and weak = ref Element.Id_set.empty in
  for id = 0 to Registry.n_elements reg - 1 do
    match Coverage.element_status cov id with
    | Coverage.Strong -> strong := Element.Id_set.add id !strong
    | Coverage.Weak -> weak := Element.Id_set.add id !weak
    | Coverage.Not_covered -> ()
  done;
  (!strong, !weak)

let zero_timing =
  {
    Netcov.total_s = 0.;
    cpu_total_s = 0.;
    materialize_s = 0.;
    sim_s = 0.;
    label_s = 0.;
    sim_count = 0;
    sim_cache_hits = 0;
    sim_cache_misses = 0;
    ifg_nodes = 0;
    ifg_edges = 0;
    bdd_vars = 0;
  }

(* The exported report without its timing block, which is the only part
   that may differ between two computations of the same coverage. *)
let export_untimed (r : Netcov.report) =
  Json_export.report { r with Netcov.timing = zero_timing }

type audit_out = {
  a_reg : Registry.t;
  a_results : (Nettest.t * Nettest.result) list;
  a_report : Netcov.report;
}

(* Strong ⊆ covered ⊆ registry elements holds by construction: a
   coverage map is one status per registry element. It is not counted as
   a check (see README.md). *)
let check_audit inp ~reference o =
  let n = Registry.n_elements o.a_reg in
  let strong, _ = statuses o.a_report.Netcov.coverage in
  let cp =
    List.concat_map (fun (_, r) -> r.Nettest.tested.Netcov.cp_elements) o.a_results
  in
  List.concat
    [
      List.concat_map
        (fun ((t : Nettest.t), r) ->
          expect "suite passes" (Nettest.passed r.Nettest.outcome) "test %s failed"
            t.Nettest.name)
        o.a_results;
      expect "registry elements" (n = inp.expect_elements)
        "registry has %d elements, generator %d" n inp.expect_elements;
      expect "registry lines"
        (Registry.total_lines o.a_reg = inp.expect_lines)
        "registry has %d lines, generator %d" (Registry.total_lines o.a_reg)
        inp.expect_lines;
      expect "control-plane elements strong"
        (List.for_all (fun id -> Element.Id_set.mem id strong) cp)
        "a control-plane-tested element is not strong";
      expect "suite coverage"
        (String.equal (export_untimed o.a_report) reference)
        "merged report differs from the analysis of the union of tested facts";
    ]

let union_tested results =
  List.fold_left
    (fun acc (_, r) -> Netcov.merge_tested acc r.Nettest.tested)
    Netcov.no_tests results


(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* One op runs the timed work and returns its deferred output check. *)
type op = unit -> unit -> (string * string) list

type workload = {
  round : op list;  (** a run attempts whole rounds of these ops *)
  run_checks : (string * string) list;  (** checks made once per run, after set-up *)
  selftest : unit -> string list;
      (** feeds each check a corrupted output; lists the checks that
          accepted one *)
}

(* A workload's set-up is timed up to the end of its warm-up op and
   returns the untimed rest: references for the checks, and the
   workload itself. *)
type setup = unit -> unit -> workload

let max_into name v = set name (Float.max v (get name))

let record_materialize (s : Materialize.stats) =
  add "materialize.ifg_nodes" (float_of_int s.Materialize.nodes);
  add "materialize.ifg_edges" (float_of_int s.Materialize.edges);
  add "materialize.targeted_sims" (float_of_int s.Materialize.sim_count);
  add "sim_hits" (float_of_int s.Materialize.sim_cache_hits);
  add "sim_lookups"
    (float_of_int (s.Materialize.sim_cache_hits + s.Materialize.sim_cache_misses))

(* Netcov.analyze's per-test context: a fresh canonical sim memo. *)
let materialize state (t : Netcov.tested) =
  let cache = Rules.create_sim_cache ~canonical:true () in
  Materialize.run (Rules.make_ctx ~cache state) ~tested:t.Netcov.dp_facts

(* --- audit: config text -> report, from scratch -------------------- *)

(* Netcov.analyze_suite_isolated + merge_reports rebuilt from the layers
   for a traced op: materialize every test, then label every test, then
   aggregate. *)
let traced_analysis pool reg state testeds =
  set "nettest.tested_facts"
    (float_of_int
       (List.fold_left (fun a t -> a + List.length t.Netcov.dp_facts) 0 testeds));
  let a0 = probe allocated_bytes in
  let mats =
    span "materialize.ms" (fun () -> Pool.map pool (materialize state) testeds)
  in
  set "materialize.alloc_mb" (mb (probe allocated_bytes -. a0));
  List.iter (fun (_, _, s) -> record_materialize s) mats;
  let labels =
    span "label.ms" (fun () ->
        List.map (fun (g, ids, _) -> Label.run ~pool g ~tested:ids) mats)
  in
  List.iter
    (fun (l : Label.result) ->
      max_into "label.bdd_vars" (float_of_int l.Label.vars);
      max_into "label.bdd_nodes" (float_of_int l.Label.bdd_nodes))
    labels;
  span "report.aggregate_ms" (fun () ->
      let dead = Deadcode.analyze reg in
      Netcov.merge_reports ~registry:reg
        (List.map2
           (fun (l : Label.result) (t : Netcov.tested) ->
             let coverage =
               Coverage.with_strong
                 (Coverage.of_sets reg ~strong:l.Label.strong ~weak:l.Label.weak)
                 t.Netcov.cp_elements
             in
             { Netcov.coverage; timing = zero_timing; dead })
           labels testeds))

let audit_op pool inp =
  let devices =
    span "config.parse_ms" (fun () -> List.map (parse_file inp) inp.files)
  in
  set "config.bytes" (float_of_int (bytes_of inp.files));
  let reg = span "config.registry_ms" (fun () -> Registry.build devices) in
  let state = span "simulator.compute_ms" (fun () -> Stable_state.compute reg) in
  set "simulator.bgp_rounds" (float_of_int (Stable_state.rounds state));
  let results = span "nettest.exec_ms" (fun () -> Nettest.run_suite state inp.tests) in
  let testeds = List.map (fun (_, r) -> r.Nettest.tested) results in
  let report =
    if !tracing then traced_analysis pool reg state testeds
    else
      let out = Netcov.analyze_suite_isolated ~pool state testeds in
      List.iter
        (fun (f : Netcov.test_failure) ->
          failwith
            (Printf.sprintf "analysis of %s raised %s\n%s" f.Netcov.tf_label f.Netcov.tf_error
               f.Netcov.tf_backtrace))
        out.Netcov.failures;
      Netcov.merge_reports ~registry:reg out.Netcov.ok
  in
  let json = span "report.export_ms" (fun () -> Json_export.report report) in
  set "report.export_bytes" (float_of_int (String.length json));
  { a_reg = reg; a_results = results; a_report = report }

let audit pool inp : setup =
 fun () ->
  let warm = audit_op pool inp in
  fun () ->
    (* Reference: the paper's definition of suite coverage, one analysis
       of the union of everything the suite tested. Every op gets the
       same inputs, so one reference serves the whole run. *)
    let state = Stable_state.compute warm.a_reg in
    let reference =
      export_untimed (Netcov.analyze ~pool state (union_tested warm.a_results))
    in
    let check = check_audit inp ~reference in
    let selftest () =
      let strong, weak = statuses warm.a_report.Netcov.coverage in
      let dropped =
        Coverage.of_sets warm.a_reg
          ~strong:(Element.Id_set.remove (Element.Id_set.min_elt strong) strong)
          ~weak
      in
      let map_results f = List.mapi (fun i (t, r) -> (t, f i r)) warm.a_results in
      let failing =
        map_results (fun _ r ->
            { r with Nettest.outcome = { r.Nettest.outcome with Nettest.failures = [ "x" ] } })
      in
      (* The first element that is not strong, claimed as control-plane
         tested by the first test. *)
      let rec not_strong id = if Element.Id_set.mem id strong then not_strong (id + 1) else id in
      let claimed =
        map_results (fun i r ->
            if i > 0 then r
            else
              let t = r.Nettest.tested in
              { r with
                Nettest.tested =
                  { t with Netcov.cp_elements = not_strong 0 :: t.Netcov.cp_elements } })
      in
      List.concat
        [
          must_reject ~check:"suite passes" "audit: a failing test"
            (check { warm with a_results = failing });
          must_reject ~check:"registry elements" "audit: registry of the wrong element count"
            (check_audit { inp with expect_elements = inp.expect_elements + 1 } ~reference warm);
          must_reject ~check:"registry lines" "audit: registry of the wrong line count"
            (check_audit { inp with expect_lines = inp.expect_lines + 1 } ~reference warm);
          must_reject ~check:"control-plane elements strong"
            "audit: a control-plane-tested element that is not strong"
            (check { warm with a_results = claimed });
          must_reject ~check:"suite coverage" "audit: report with a strong element dropped"
            (check { warm with a_report = { warm.a_report with Netcov.coverage = dropped } });
        ]
    in
    let op () =
      let o = audit_op pool inp in
      fun () -> check o
    in
    { round = [ op ]; run_checks = check warm; selftest }

(* --- edit: a one-line policy edit on a warm Incr session ----------- *)

(* The edit makes one spine reject the WAN default route on import: that
   spine loses its default, and every aggregation router above it loses
   one of its ECMP paths to the default. *)
let edit_from = "route-map IMPORT-WAN permit 10"
let edit_to = "route-map IMPORT-WAN deny 10"

let replace_line text ~from ~into =
  let lines = String.split_on_char '\n' text in
  if List.length (List.filter (String.equal from) lines) <> 1 then
    failwith ("edit line not found: " ^ from);
  String.concat "\n" (List.map (fun l -> if String.equal l from then into else l) lines)

let suite_testeds inp state =
  List.map (fun (_, r) -> r.Nettest.tested) (Nettest.run_suite state inp.tests)

(* Incr.create's cold pass rebuilt from the layers: materialize each
   test, then label each tested fact's cone on its own. *)
let traced_incr_create state testeds =
  List.iter
    (fun t ->
      let g, ids, s = span "materialize.ms" (fun () -> materialize state t) in
      record_materialize s;
      span "label.ms" (fun () ->
          List.iter
            (fun root ->
              let c = Label.run_cone g ~root in
              max_into "label.bdd_vars" (float_of_int c.Label.c_vars);
              max_into "label.bdd_nodes" (float_of_int c.Label.c_bdd_nodes))
            (List.sort_uniq Int.compare ids)))
    testeds

let edit pool inp ~seed : setup =
 fun () ->
  let ft = Option.get inp.fattree in
  let spine = List.nth ft.Fattree.spines (seed mod List.length ft.Fattree.spines) in
  let file = spine ^ ".cfg" in
  let original = List.assoc file inp.files in
  let edited = replace_line original ~from:edit_from ~into:edit_to in
  let devices = List.map (parse_file inp) inp.files in
  let state = Stable_state.compute (Registry.build devices) in
  let testeds = suite_testeds inp state in
  let t0 = now () in
  let session, _ = Incr.create state testeds in
  let create_ms = ms (now () -. t0) in
  let current = ref (devices, state) in
  let apply text =
    let d = span "config.parse_ms" (fun () -> parse_file inp (file, text)) in
    set "config.bytes" (float_of_int (String.length text));
    let devices =
      List.map
        (fun (x : Device.t) -> if x.Device.hostname = spine then d else x)
        (fst !current)
    in
    let reg = span "config.registry_ms" (fun () -> Registry.build devices) in
    let state = span "simulator.update_ms" (fun () -> Stable_state.update (snd !current) reg) in
    let ts = span "nettest.exec_ms" (fun () -> suite_testeds inp state) in
    let st = span "incr.update_ms" (fun () -> Incr.update session state ts) in
    set "incr.dirty_cones" (float_of_int st.Incr.s_dirty_cones);
    set "incr.relabeled_cones" (float_of_int st.Incr.s_relabeled);
    set "incr.reuse_ratio" st.Incr.s_reuse_ratio;
    let report = span "report.aggregate_ms" (fun () -> Incr.report session) in
    let json = span "report.export_ms" (fun () -> Json_export.report report) in
    set "report.export_bytes" (float_of_int (String.length json));
    current := (devices, state);
    (state, ts, report, Incr.last_diff session)
  in
  let warm = apply edited in
  fun () ->
    (* Set-up figures: one value each per run. *)
    if !tracing then traced_incr_create state testeds;
    set "incr.create_ms" create_ms;
    flush_op ();
    (* From-scratch reference per configuration version: the edit and its
       revert alternate, so each version's reference is made once. *)
    let references = Hashtbl.create 2 in
    let reference text state ts =
      match Hashtbl.find_opt references text with
      | Some r -> r
      | None ->
          let r =
            export_untimed
              (Netcov.merge_reports ~registry:(Stable_state.registry state)
                 (Netcov.analyze_suite ~pool state ts))
          in
          Hashtbl.replace references text r;
          r
    in
    let check ~reference (report, diff) =
      let changed =
        match diff with
        | Some d -> d.Netcov_incr.Registry_diff.devices_changed
        | None -> []
      in
      List.concat
        [
          expect "incremental report"
            (String.equal (export_untimed report) reference)
            "incremental report differs from the from-scratch report";
          expect "registry diff" (changed = [ spine ]) "diff names [%s], expected [%s]"
            (String.concat "; " changed) spine;
        ]
    in
    let warm_state, warm_ts, warm_report, warm_diff = warm in
    let warm_reference = reference edited warm_state warm_ts in
    let selftest () =
      let cov = warm_report.Netcov.coverage in
      let strong, weak = statuses cov in
      let e = Element.Id_set.min_elt strong in
      let changed =
        Coverage.of_sets (Coverage.registry cov)
          ~strong:(Element.Id_set.remove e strong) ~weak:(Element.Id_set.add e weak)
      in
      let elsewhere =
        Option.map
          (fun (d : Netcov_incr.Registry_diff.t) ->
            { d with Netcov_incr.Registry_diff.devices_changed = [ List.hd ft.Fattree.leaves ] })
          warm_diff
      in
      List.concat
        [
          must_reject ~check:"incremental report"
            "edit: incremental report with one element's lines changed"
            (check ~reference:warm_reference
               ({ warm_report with Netcov.coverage = changed }, warm_diff));
          must_reject ~check:"registry diff" "edit: diff naming another device"
            (check ~reference:warm_reference (warm_report, elsewhere));
        ]
    in
    let op text () =
      let state, ts, report, diff = apply text in
      fun () -> check ~reference:(reference text state ts) (report, diff)
    in
    {
      round = [ op original; op edited ];
      run_checks = check ~reference:warm_reference (warm_report, warm_diff);
      selftest;
    }

(* --- mutate: one warm mutation sweep ------------------------------- *)

let sample_size = 48
let scratch_subset = 4

let verdicts_on ids (r : Mutation.result) =
  List.map
    (fun id ->
      if Element.Id_set.mem id r.Mutation.killed then `Killed
      else if Element.Id_set.mem id r.Mutation.survived then `Survived
      else `Skipped)
    ids

let check_partition sample (r : Mutation.result) =
  let open Element.Id_set in
  let k = r.Mutation.killed and s = r.Mutation.survived and x = r.Mutation.skipped in
  expect "verdict partition"
    (is_empty (inter k s) && is_empty (inter k x) && is_empty (inter s x)
    && equal (union k (union s x)) (of_list sample))
    "killed, survived and skipped do not partition the sample"

let domain_exn = function
  | Failure _ | Invalid_argument _ | Not_found -> true
  | _ -> false

(* Mutation.run ~mode:Warm rebuilt from the simulator's public
   functions for a traced op: baseline fixed point, import-memo priming,
   then every mutant's warm update and oracle call. A mutant is killed
   when the oracle's answer changes or the mutant network raises, as in
   Mutation.run. *)
let traced_sweep pool reg ~oracle sample =
  let baseline_state = span "simulator.compute_ms" (fun () -> Stable_state.compute reg) in
  span "simulator.prime_ms" (fun () -> Stable_state.prime baseline_state);
  let baseline = span "mutation.oracle_ms" (fun () -> oracle baseline_state) in
  let mutant m =
    let t0 = now () in
    match Stable_state.update_devices baseline_state (Mutation.mutant_devices reg m) with
    | exception e when domain_exn e -> (true, now () -. t0, 0.)
    | state -> (
        let t1 = now () in
        match oracle state with
        | exception e when domain_exn e -> (true, t1 -. t0, now () -. t1)
        | v -> (v <> baseline, t1 -. t0, now () -. t1))
  in
  let per_element =
    span "mutation.sweep_ms" (fun () ->
        Pool.map pool
          (fun id ->
            match Mutation.mutants_of reg id with
            | None | Some [] -> (id, `Skipped, [])
            | Some ms ->
                let os = List.map mutant ms in
                (id, (if List.exists (fun (k, _, _) -> k) os then `Killed else `Survived), os))
          sample)
  in
  let all = List.concat_map (fun (_, _, os) -> os) per_element in
  let total f = ms (List.fold_left (fun a o -> a +. f o) 0. all) in
  add "simulator.update_devices_ms" (total (fun (_, u, _) -> u));
  add "mutation.oracle_ms" (total (fun (_, _, o) -> o));
  set "mutation.per_mutant_p50_ms" (ms (median (List.map (fun (_, u, o) -> u +. o) all)));
  set "mutation.mutants" (float_of_int (List.length all));
  let pick v =
    List.fold_left
      (fun s (id, v', _) -> if v' = v then Element.Id_set.add id s else s)
      Element.Id_set.empty per_element
  in
  {
    Mutation.killed = pick `Killed;
    survived = pick `Survived;
    skipped = pick `Skipped;
    mutants_run = List.length all;
    seconds = 0.;
    outcomes = [];
  }

let mutate pool inp ~seed : setup =
 fun () ->
  let ft = Option.get inp.fattree in
  let reg = Registry.build (List.map (parse_file inp) inp.files) in
  let state = Stable_state.compute reg in
  let facts =
    ((Datacenter.default_route_check ft).Nettest.run state).Nettest.tested.Netcov.dp_facts
  in
  let oracle = Mutation.facts_oracle facts in
  (* Stratified: every step-th element in the generator's device order,
     so every device role and element kind is represented; then moved
     from pod p to pod (p + seed) mod k. Pods are symmetric, so every
     seed sweeps the same mix of elements, on other devices. *)
  let slots =
    List.concat_map
      (fun (d : Device.t) ->
        if d.Device.is_external then []
        else List.mapi (fun i _ -> (d.Device.hostname, i)) (Registry.elements_of_device reg d.Device.hostname))
      ft.Fattree.devices
  in
  let step = List.length slots / sample_size in
  let sample =
    List.init sample_size (fun i ->
        let host, pos = List.nth slots (i * step) in
        let host =
          match String.split_on_char '-' host with
          | [ (("leaf" | "agg") as role); p; x ] ->
              Printf.sprintf "%s-%d-%s" role ((int_of_string p + seed) mod ft.Fattree.k) x
          | _ -> host
        in
        List.nth (Registry.elements_of_device reg host) pos)
  in
  let sweep () =
    if !tracing then traced_sweep pool reg ~oracle sample
    else Mutation.run reg ~oracle ~elements:sample ~mode:Mutation.Warm ~pool ()
  in
  let warm = sweep () in
  fun () ->
    let st = Random.State.make [| seed |] in
    let subset =
      List.sort_uniq Int.compare
        (List.init scratch_subset (fun _ -> List.nth sample (Random.State.int st sample_size)))
    in
    (* Apart from the warm path: the subset's mutants recomputed from a
       fresh registry build each. *)
    let scratch =
      verdicts_on subset
        (Mutation.run reg ~oracle ~elements:subset ~mode:Mutation.Scratch ~pool ())
    in
    (* A traced sweep is also held to Mutation.run's own verdicts. *)
    let first =
      verdicts_on sample
        (if !tracing then Mutation.run reg ~oracle ~elements:sample ~mode:Mutation.Warm ~pool ()
         else warm)
    in
    let check r =
      List.concat
        [
          check_partition sample r;
          expect "warm equals scratch" (verdicts_on subset r = scratch)
            "warm verdicts differ from scratch on the subset";
          expect "reference sweep" (verdicts_on sample r = first)
            "verdicts differ from the reference sweep";
        ]
    in
    let check_oracle st =
      expect "oracle on the unmutated network" (oracle st)
        "the oracle fails on the unmutated network"
    in
    let selftest () =
      let inside = List.hd subset in
      let outside = List.find (fun id -> not (List.mem id subset)) sample in
      let open Element.Id_set in
      let flip id =
        if mem id warm.Mutation.killed then
          { warm with Mutation.killed = remove id warm.Mutation.killed; survived = add id warm.Mutation.survived }
        else
          { warm with Mutation.survived = remove id warm.Mutation.survived; killed = add id warm.Mutation.killed }
      in
      let twice = List.hd sample in
      (* A network the oracle must reject: the state of the first killed
         element's first mutant that converges. *)
      let killed_state =
        List.find_map
          (fun id ->
            match Mutation.mutants_of reg id with
            | Some (m :: _) when mem id warm.Mutation.killed -> (
                match Stable_state.update_devices state (Mutation.mutant_devices reg m) with
                | st -> Some st
                | exception e when domain_exn e -> None)
            | _ -> None)
          sample
      in
      List.concat
        [
          must_reject ~check:"verdict partition" "mutate: an element in two verdict sets"
            (check
               { warm with
                 Mutation.killed = add twice warm.Mutation.killed;
                 survived = add twice warm.Mutation.survived });
          must_reject ~check:"warm equals scratch" "mutate: a flipped verdict in the subset"
            (check (flip inside));
          must_reject ~check:"reference sweep" "mutate: a flipped verdict outside the subset"
            (check (flip outside));
          (match killed_state with
          | Some st ->
              must_reject ~check:"oracle on the unmutated network"
                "mutate: the network of a killed mutant" (check_oracle st)
          | None -> [ "mutate: no killed mutant converged, so the oracle check is untested" ]);
        ]
    in
    let op () =
      let r = sweep () in
      fun () -> check r
    in
    { round = [ op ]; run_checks = check_oracle state @ check warm; selftest }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Every per-layer metric is printed by every traced run; a layer a
   workload does not call reads 0. *)
let per_layer =
  [
    ("config.parse_ms", "ms"); ("config.registry_ms", "ms"); ("config.bytes", "bytes");
    ("simulator.compute_ms", "ms"); ("simulator.bgp_rounds", "count");
    ("simulator.update_ms", "ms"); ("simulator.prime_ms", "ms");
    ("simulator.update_devices_ms", "ms");
    ("nettest.exec_ms", "ms"); ("nettest.tested_facts", "count");
    ("materialize.ms", "ms"); ("materialize.alloc_mb", "MB");
    ("materialize.ifg_nodes", "count"); ("materialize.ifg_edges", "count");
    ("materialize.targeted_sims", "count"); ("materialize.sim_cache_hit_ratio", "ratio");
    ("label.ms", "ms"); ("label.bdd_vars", "count"); ("label.bdd_nodes", "count");
    ("report.aggregate_ms", "ms"); ("report.export_ms", "ms"); ("report.export_bytes", "bytes");
    ("incr.create_ms", "ms"); ("incr.update_ms", "ms"); ("incr.dirty_cones", "count");
    ("incr.relabeled_cones", "count"); ("incr.reuse_ratio", "ratio");
    ("mutation.sweep_ms", "ms"); ("mutation.per_mutant_p50_ms", "ms");
    ("mutation.oracle_ms", "ms"); ("mutation.mutants", "count");
    ("parallel.tasks_stolen", "count"); ("parallel.sleeps", "count");
    ("coverage_to_exec_ratio", "ratio"); ("coverage_to_exec_base_ms", "ms");
    ("trace.op_ms", "ms"); ("trace.span_share", "ratio");
  ]

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
           (if Float.is_nan v then 0. else v)
           unit_)
       metrics)

(* Materialize.run registers its per-rule counters through a toplevel
   lazy value, and two domains forcing it at once raise
   CamlinternalLazy.Undefined: about one process in a hundred lost a
   test's analysis in its first pooled run. Forced here once, on one
   domain, before any pooled analysis (see CHANGES.md). *)
let force_rule_counters () =
  ignore (Materialize.run (Rules.make_ctx (Stable_state.compute (Registry.build []))) ~tested:[])

(* One set-up, bracketed by the calibration kernel; returns the
   unscaled seconds, the speed factor and the untimed rest. *)
let timed_setup (setup : setup) =
  let k0 = kernel () in
  ignore (Gc.stat ());
  let t0 = now () in
  let finish = setup () in
  let dt = now () -. t0 in
  (dt, speed_factor ((k0 +. kernel ()) /. 2.), finish)

(* A cold set-up in a child process, which writes its unscaled seconds
   and speed factor to a pipe and exits. It is forked before this
   process spawns any domain (OCaml 5 cannot fork after that), so it
   starts from the same state as this process's own set-up. *)
let child_setup make =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        match
          let pool = Pool.create ~domains () in
          let dt, f, _ = timed_setup (make pool) in
          Pool.teardown pool;
          Printf.sprintf "%.17g %.17g" dt f
        with
        | out ->
            ignore (Unix.write_substring w out 0 (String.length out));
            0
        | exception e ->
            prerr_endline ("set-up raised: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let out = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Scanf.sscanf out "%f %f" (fun dt f -> (dt, f))
      | _ -> failwith "a set-up in a child process failed")

let pool_tasks_run () =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      match (s.Metrics.name, s.Metrics.value) with
      | "pool.tasks.executed", Metrics.Counter n -> acc + n
      | _ -> acc)
    0
    (Metrics.samples Metrics.default)

(* The calibration kernel after an op. [Pool.map] returns only once all
   its tasks have run, and idle workers block on a condition variable
   instead of spinning, so no program work should run beside the
   kernel; if a pool task runs anyway, the kernel is run again. *)
let kernels_redone = ref 0

let settled_kernel () =
  let rec go tries =
    let p0 = pool_tasks_run () in
    let k = kernel () in
    if pool_tasks_run () = p0 || tries = 0 then k
    else begin
      incr kernels_redone;
      go (tries - 1)
    end
  in
  go 3

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref nan and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time (required)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload W --seed N --seconds S --trace 0|1";
  if not (!seconds > 0.) then begin
    prerr_endline "harness.exe: --seconds S (S > 0) is required";
    exit 2
  end;
  tracing := !trace = 1;
  force_rule_counters ();
  let seed = abs !seed in
  (* [sets] is the number of set-ups in an untraced run, each cold: one
     here and the rest in child processes. Edit-fattree-k8's set-up alone
     takes ~8 s, so it is made once. *)
  let inputs, make, sets =
    match !workload with
    | "audit-internet2" ->
        let inp = internet2_inputs seed in
        (inp, (fun pool -> audit pool inp), 3)
    | "audit-fattree-k8" ->
        let inp = fattree_inputs seed in
        (inp, (fun pool -> audit pool inp), 3)
    | "edit-fattree-k8" ->
        let inp = fattree_inputs seed in
        (inp, (fun pool -> edit pool inp ~seed), 1)
    | "mutate-fattree-k8" ->
        let inp = fattree_inputs seed in
        (inp, (fun pool -> mutate pool inp ~seed), 3)
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  Printf.printf "workload %s seed %d: %d files, %d bytes, %d elements, %d lines\n%!"
    !workload seed (List.length inputs.files) (bytes_of inputs.files)
    inputs.expect_elements inputs.expect_lines;
  (* Set-up: parsing, registry, stable state, suite, session and one
     warm-up op. *)
  let children = if !tracing then [] else List.init (sets - 1) (fun _ -> child_setup make) in
  let pool = Pool.create ~domains () in
  let dt, factor, finish = timed_setup (make pool) in
  let setups = (dt, factor) :: children in
  let setup_times = List.map (fun (dt, f) -> dt *. f) setups in
  Hashtbl.reset op_values;
  let w = finish () in
  let selftest = w.selftest () in
  List.iter (Printf.printf "self-test: check accepted a corrupted output: %s\n") selftest;
  List.iter (fun (c, d) -> Printf.printf "run check failed: %s: %s\n" c d) w.run_checks;
  let latencies = ref [] and allocs = ref [] and kernels = ref [] in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let deadline = now () +. !seconds in
  while now () < deadline do
    List.iter
      (fun op ->
        Hashtbl.reset op_values;
        op_spanned := 0.;
        op_probe := 0.;
        let stolen = counter "pool.tasks.stolen" and sleeps = counter "pool.sleeps" in
        let k0 = kernel () in
        let a0 = allocated_bytes () in
        incr attempted;
        let t0 = now () in
        match op () with
        | exception e ->
            incr failed;
            Printf.printf "op %d raised: %s\n%!" !attempted (Printexc.to_string e)
        | check -> (
            let dt = now () -. t0 in
            let a1 = allocated_bytes () in
            let k1 = settled_kernel () in
            if !tracing then begin
              let wall = dt -. !op_probe in
              set "trace.op_ms" (ms wall);
              set "trace.span_share" (!op_spanned /. wall);
              set "parallel.tasks_stolen" (float_of_int (counter "pool.tasks.stolen" - stolen));
              set "parallel.sleeps" (float_of_int (counter "pool.sleeps" - sleeps));
              flush_op ()
            end;
            match check () with
            | [] ->
                latencies := dt :: !latencies;
                kernels := k0 :: k1 :: !kernels;
                allocs := (a1 -. a0) :: !allocs
            | findings ->
                incr failed;
                incr wrong;
                List.iter (fun (c, d) -> Printf.printf "op %d: %s: %s\n%!" !attempted c d) findings))
      w.round
  done;
  let correct = selftest = [] && w.run_checks = [] && !wrong = 0 && !latencies <> [] in
  let factor = speed_factor (median !kernels) in
  let metrics =
    if !tracing then
      List.map
        (fun (name, unit_) ->
          let v =
            match Hashtbl.find_opt layer_values name with
            | Some vs -> median vs
            | None -> 0.
          in
          (name, unit_, if unit_ = "ms" then v *. factor else v))
        per_layer
    else
      [
        ("setup_s", "s", median setup_times);
        ("op_p50_ms", "ms", ms (median !latencies) *. factor);
        ("op_tail_ms", "ms", ms (p75 !latencies) *. factor);
        ("alloc_mb", "MB", mb (median !allocs));
        ("peak_heap_mb", "MB", peak_heap_mb ());
      ]
  in
  Pool.teardown pool;
  Printf.printf "ops %d, failed %d\n" !attempted !failed;
  (* The calibration behind the scaled times: the run's median kernel
     time, the unscaled op times, each set-up's unscaled time and factor,
     and how often a kernel was run again because a pool task ran beside
     it. *)
  Printf.printf
    "calibration {\"kernel_ms\": %.4f, \"op_p50_unscaled_ms\": %.3f, \"op_p75_unscaled_ms\": %.3f, \"setup_unscaled_s\": [%s], \"setup_factor\": [%s], \"kernels_redone\": %d}\n"
    (ms (median !kernels)) (ms (median !latencies)) (ms (p75 !latencies))
    (String.concat ", " (List.map (fun (dt, _) -> Printf.sprintf "%.4f" dt) setups))
    (String.concat ", " (List.map (fun (_, f) -> Printf.sprintf "%.4f" f) setups))
    !kernels_redone;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failed (json_metrics metrics)
