(* Process accounting from /proc and [Unix.times]: CPU seconds and peak
   resident set of the benchmark, its children and the daemon's workers. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* Peak resident set (VmHWM) from a /proc status file, in MB; 0 when the
   process is gone. *)
let vm_hwm_mb path =
  match read_file path with
  | None -> 0.0
  | Some text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with Some kb -> kb /. 1024.0 | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' text)

let peak_rss_mb pid = vm_hwm_mb (Printf.sprintf "/proc/%d/status" pid)
let self_peak_rss_mb () = vm_hwm_mb "/proc/self/status"

(* Linux reports /proc times in USER_HZ, fixed at 100 by the kernel ABI. *)
let user_hz = 100.0

(* User+system CPU of a live process [pid] plus its reaped children, in
   seconds; 0 when it is gone. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some text -> (
      (* Fields after the parenthesised command name start at field 3
         (state); utime, stime, cutime, cstime are fields 14-17. *)
      match String.rindex_opt text ')' with
      | None -> 0.0
      | Some i ->
          let rest = String.sub text (i + 2) (String.length text - i - 2) in
          let fields = Array.of_list (String.split_on_char ' ' rest) in
          let field n = Option.value (float_of_string_opt fields.(n - 3)) ~default:0.0 in
          if Array.length fields < 15 then 0.0
          else (field 14 +. field 15 +. field 16 +. field 17) /. user_hz)

(* CPU of this process and every descendant it has reaped. *)
let self_and_reaped_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime
